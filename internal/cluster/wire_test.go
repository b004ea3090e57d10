package cluster

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

func TestCodecRoundTripAll(t *testing.T) {
	payloads := []msg{
		{tag: tagVoteRequest, op: OpWrite},
		{tag: tagVoteReply, from: 7, votes: 3, value: -42, stamp: 99, version: 5, qr: 28, qw: 74},
		{tag: tagSyncState, value: 1, stamp: 2, version: 3, qr: 1, qw: 101, votesSeen: 64},
		{tag: tagApplyWrite, value: -1, stamp: 1 << 40},
		{tag: tagApplyWrite, value: 12, stamp: 34, wantAck: true},
		{tag: tagApplyAck, from: 6, stamp: 1<<40 + 3},
		{tag: tagInstallAssign, qr: 50, qw: 52, version: 9, value: 4, stamp: 8},
		{tag: tagHistRequest},
		{tag: tagHistReply, from: 3, weights: &[]float64{0, 1.5, 0, 2.25}},
		{tag: tagHistReply, from: 5}, // empty histogram
		{tag: tagHeartbeat, from: 4, seq: 1<<40 + 7},
		{tag: tagHeartbeatAck, from: 8, seq: 1<<40 + 7, votes: 3, version: 12},
	}
	for _, p := range payloads {
		got := roundTrip(p)
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip changed %#v to %#v", p, got)
		}
	}
}

// TestDecodeHistReplyInPlace: in wire mode a histReply is decoded into the
// row the message already refers to — the replying replica's reused copy of
// its histogram — so the round trip keeps the reference and the backing
// array and allocates nothing. Only a message that holds no row gets a new
// one, and a held row too short for the bins a new backing array.
func TestDecodeHistReplyInPlace(t *testing.T) {
	c := &Cluster{}
	row := []float64{0, 1.5, 2.25}
	m := msg{tag: tagHistReply, from: 3, weights: &row}
	first := &row[0]
	if n := testing.AllocsPerRun(100, func() { c.roundTrip(&m) }); n != 0 {
		t.Fatalf("an in-place histReply round trip allocates %.1f objects", n)
	}
	if m.weights != &row || &m.row()[0] != first || !reflect.DeepEqual(row, []float64{0, 1.5, 2.25}) {
		t.Fatalf("round trip moved or changed the held row: %v at %p", m.row(), m.weights)
	}
	// Other bytes of the same length land in the same array.
	if err := decodeMsg(mustMarshal(msg{tag: tagHistReply, from: 4, weights: &[]float64{7, 8, 9}}), &m); err != nil {
		t.Fatal(err)
	}
	if m.from != 4 || m.weights != &row || &row[0] != first || !reflect.DeepEqual(row, []float64{7, 8, 9}) {
		t.Fatalf("decode did not reuse the held row: from %d, %v at %p", m.from, m.row(), m.weights)
	}
	// A longer row outgrows the array; a fresh struct gets a row of its own.
	long := mustMarshal(msg{tag: tagHistReply, from: 5, weights: &[]float64{1, 2, 3, 4, 5}})
	if err := decodeMsg(long, &m); err != nil {
		t.Fatal(err)
	}
	if m.weights != &row || len(row) != 5 || row[4] != 5 {
		t.Fatalf("decode did not grow the held row: %v", row)
	}
	var fresh msg
	if err := decodeMsg(long, &fresh); err != nil || fresh.weights == nil || len(fresh.row()) != 5 {
		t.Fatalf("fresh decode: %v, row %v", err, fresh.row())
	}
	// A kind without a row drops the reference.
	if err := decodeMsg(mustMarshal(msg{tag: tagHistRequest}), &m); err != nil || m.weights != nil {
		t.Fatalf("histRequest kept a row: %v, %p", err, m.weights)
	}
}

// marshalPayload, unmarshalPayload and roundTrip are the by-value faces of
// the codec the tests and the fuzz target drive; the runtime itself encodes
// into a reused buffer and decodes in place (Cluster.roundTrip).
func marshalPayload(m msg) ([]byte, error) { return appendMsg(nil, &m) }

func unmarshalPayload(data []byte) (m msg, err error) {
	err = decodeMsg(data, &m)
	return m, err
}

func roundTrip(m msg) msg {
	out, err := unmarshalPayload(mustMarshal(m))
	if err != nil {
		panic(err)
	}
	return out
}

// TestWireFormatPinned holds the byte format still: one message of each of
// the ten kinds against the encoding the boxed-payload codec (before the one
// in-place msg) produced for it, so "the format did not change" is a test
// and not a promise. The committed fuzz corpus pins the same bytes from the
// decoding side.
func TestWireFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		m   msg
		hex string
	}{
		{msg{tag: tagVoteRequest, op: OpWrite}, "0101"},
		{msg{tag: tagVoteReply, from: 7, votes: 3, value: -42, stamp: 99, version: 5, qr: 28, qw: 74},
			"020700000003000000d6ffffffffffffff630000000000000005000000000000001c0000004a000000"},
		{msg{tag: tagSyncState, value: 1, stamp: 2, version: 3, qr: 1, qw: 101, votesSeen: 64},
			"03010000000000000002000000000000000300000000000000010000006500000040000000"},
		{msg{tag: tagApplyWrite, value: 12, stamp: 1<<40 + 34, wantAck: true}, "040c00000000000000220000000001000001"},
		{msg{tag: tagInstallAssign, qr: 50, qw: 52, version: 9, value: 4, stamp: 8},
			"053200000034000000090000000000000004000000000000000800000000000000"},
		{msg{tag: tagHistRequest}, "06"},
		{msg{tag: tagHistReply, from: 3, weights: &[]float64{0, 1.5, 2.25}},
			"0703000000030000000000000000000000000000000000f83f0000000000000240"},
		{msg{tag: tagApplyAck, from: 6, stamp: 1<<40 + 3}, "08060000000300000000010000"},
		{msg{tag: tagHeartbeat, from: 4, seq: 1<<40 + 7}, "09040000000700000000010000"},
		{msg{tag: tagHeartbeatAck, from: 8, seq: 1<<40 + 7, votes: 3, version: 12},
			"0a080000000700000000010000030000000c00000000000000"},
	} {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		// Into a non-empty buffer: appendMsg must append, not overwrite.
		got, err := appendMsg([]byte{0xee}, &tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 0xee || !bytes.Equal(got[1:], want) {
			t.Errorf("%s encodes as %x, want %s", kinds[tc.m.tag].name, got[1:], tc.hex)
		}
		if len(want) != 1+kinds[tc.m.tag].size+8*len(tc.m.row()) {
			t.Errorf("%s: the kinds table says %d body bytes, the wire has %d",
				kinds[tc.m.tag].name, kinds[tc.m.tag].size, len(want)-1)
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{},
		{0},            // unknown tag
		{99},           // unknown tag
		{tagVoteReply}, // truncated body
		{tagApplyWrite, 1, 2, 3},
		{tagSyncState, 0},
		{tagInstallAssign},
		{tagVoteRequest},       // missing op byte
		{tagApplyAck},          // truncated body
		{tagApplyAck, 1, 2, 3}, // still truncated
		{tagHistRequest, 0},    // trailing bytes
		{tagHeartbeat},         // truncated body
		{tagHeartbeat, 1, 2},   // still truncated
		{tagHeartbeatAck, 1},   // truncated body
		append(mustMarshal(msg{tag: tagApplyAck, from: 1, stamp: 2}), 0xff), // trailing bytes
		append(mustMarshal(msg{tag: tagHeartbeat, from: 1, seq: 2}), 0),     // trailing bytes
		append(mustMarshal(msg{tag: tagHeartbeatAck, from: 1, seq: 2, votes: 1, version: 3}), 7),
		// histReply whose bin count promises far more data than the buffer
		// holds: must be rejected before the weights allocation.
		{tagHistReply, 1, 0, 0, 0, 0xff, 0xff, 0x0f, 0, 1, 2, 3},
	} {
		if _, err := unmarshalPayload(data); err == nil {
			t.Fatalf("garbage %v accepted", data)
		}
	}
}

func mustMarshal(p msg) []byte {
	data, err := marshalPayload(p)
	if err != nil {
		panic(err)
	}
	return data
}

// TestDecodeErrorsNameTag checks that decode failures identify the message
// kind, which is what makes wire-level corruption debuggable.
func TestDecodeErrorsNameTag(t *testing.T) {
	for tag, want := range map[byte]string{
		tagVoteReply:     "voteReply",
		tagSyncState:     "syncState",
		tagApplyWrite:    "applyWrite",
		tagApplyAck:      "applyAck",
		tagInstallAssign: "installAssign",
		tagHistReply:     "histReply",
		tagHeartbeat:     "heartbeat",
		tagHeartbeatAck:  "heartbeatAck",
	} {
		_, err := unmarshalPayload([]byte{tag, 7})
		if err == nil {
			t.Fatalf("tag %d: truncated body accepted", tag)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("tag %d: error %q does not name %q", tag, err, want)
		}
	}
}

func TestMarshalUnknownPayload(t *testing.T) {
	for _, tag := range []byte{0, tagHeartbeatAck + 1, 0xff} {
		if _, err := marshalPayload(msg{tag: tag}); err == nil {
			t.Fatalf("unknown message tag %d marshaled", tag)
		}
	}
}

// TestWireModeProtocolEquivalence runs the same random schedule with and
// without the codec in the delivery path; the observable behaviour must be
// identical (the codec is lossless for protocol state).
func TestWireModeProtocolEquivalence(t *testing.T) {
	g := graph.Complete(7)
	stA := graph.NewState(g, nil)
	stB := graph.NewState(g, nil)
	plain, err := New(stA, quorum.Majority(7))
	if err != nil {
		t.Fatal(err)
	}
	wired, err := New(stB, quorum.Majority(7))
	if err != nil {
		t.Fatal(err)
	}
	wired.SetWireMode(true)
	src := rng.New(2222)
	for step := 0; step < 3000; step++ {
		switch src.Intn(8) {
		case 0:
			i := src.Intn(7)
			stA.FailSite(i)
			stB.FailSite(i)
		case 1:
			i := src.Intn(7)
			stA.RepairSite(i)
			stB.RepairSite(i)
		case 2:
			l := src.Intn(g.M())
			stA.FailLink(l)
			stB.FailLink(l)
		case 3:
			l := src.Intn(g.M())
			stA.RepairLink(l)
			stB.RepairLink(l)
		case 4, 5:
			x := src.Intn(7)
			if ga, gb := plain.Write(x, int64(step)), wired.Write(x, int64(step)); ga != gb {
				t.Fatalf("step %d: write grants differ", step)
			}
		case 6:
			x := src.Intn(7)
			va, sa, oa := plain.Read(x)
			vb, sb, ob := wired.Read(x)
			if oa != ob || va != vb || sa != sb {
				t.Fatalf("step %d: reads differ (%d,%d,%v) vs (%d,%d,%v)",
					step, va, sa, oa, vb, sb, ob)
			}
		case 7:
			x := src.Intn(7)
			qr := 1 + src.Intn(3)
			a := quorum.Assignment{QR: qr, QW: 7 - qr + 1}
			ea := plain.Reassign(x, a)
			eb := wired.Reassign(x, a)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("step %d: reassigns differ", step)
			}
		}
	}
}

// TestWireModeServingEquivalence is the serving layer's wire-on/wire-off
// twin on the bench's cluster: strategy-served reads and writes, healthy
// and then churned daemon sweeps (heartbeats, and the histogram gossip of
// the attempts churn triggers), and — under a fault source that duplicates
// and reorders, so one body is delivered more than once — the hardened
// rounds. After every step the outcome, Stats, every site's copy and
// histogram, and every disk's bytes must be the same with the codec on as
// off.
func TestWireModeServingEquivalence(t *testing.T) {
	const n, healthy = 9, 300
	for _, faulty := range []bool{false, true} {
		t.Run(fmt.Sprintf("faulty=%v", faulty), func(t *testing.T) {
			plain, wired := benchConfigCluster(t), benchConfigCluster(t)
			plain.SetWireMode(false)
			if faulty {
				mix := faults.Mix{Name: "dup-reorder", Duplicate: 0.3, Reorder: 0.3}
				plain.EnableChaos(faults.NewPlan(31, mix))
				wired.EnableChaos(faults.NewPlan(31, mix))
			}
			src := rng.New(77)
			for step := 0; step < 1500; step++ {
				x := src.Intn(n)
				var a, b any
				switch r := src.Intn(20); {
				case r < 8:
					a, b = plain.ServeRead(x), wired.ServeRead(x)
				case r < 12:
					a, b = plain.ServeWrite(x, int64(step)), wired.ServeWrite(x, int64(step))
				case r < 16 || step < healthy:
					a, b = plain.DaemonStep(x), wired.DaemonStep(x)
				default:
					for _, c := range []*Cluster{plain, wired} {
						switch l := x % c.st.Graph().M(); r {
						case 16:
							c.FailSite(x)
						case 17:
							c.RepairSite(x)
						case 18:
							c.FailLink(l)
						default:
							c.RepairLink(l)
						}
					}
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d: outcomes differ: wire off %+v, on %+v", step, a, b)
				}
				if plain.Stats() != wired.Stats() {
					t.Fatalf("step %d: stats differ: wire off %+v, on %+v", step, plain.Stats(), wired.Stats())
				}
				for i := 0; i < n; i++ {
					p, w := &plain.nodes[i], &wired.nodes[i]
					if p.Copy != w.Copy || !reflect.DeepEqual(p.hist, w.hist) {
						t.Fatalf("step %d: site %d differs: wire off %+v %v, on %+v %v", step, i, p.Copy, p.hist, w.Copy, w.hist)
					}
					if !reflect.DeepEqual(plain.disks[i].Dump(), wired.disks[i].Dump()) {
						t.Fatalf("step %d: site %d's disk bytes differ", step, i)
					}
				}
			}
			hc, sc := wired.HealthCounters(), wired.StrategyCounters()
			if hc.HeartbeatAcks == 0 || hc.DaemonReassigns+hc.DaemonNoChanges == 0 {
				t.Fatalf("no heartbeat or no daemon attempt ran: %+v", hc)
			}
			if faulty {
				if cc := wired.ChaosCounters(); cc.MsgDuplicated == 0 || cc.MsgReordered == 0 {
					t.Fatalf("the source duplicated or reordered nothing: %+v", cc)
				}
			} else if sc.SampledReads == 0 || sc.SampledWrites == 0 {
				t.Fatalf("the strategy never served: %+v", sc)
			}
		})
	}
}

// FuzzUnmarshalPayload drives arbitrary bytes through the decoder. The
// decoder must never panic, and any buffer it accepts must be a canonical
// encoding: marshal(unmarshal(data)) == data, and a second
// marshal→unmarshal→marshal cycle must be byte-stable. Byte-level
// comparison (rather than DeepEqual) also covers NaN histogram weights,
// which round-trip bit-exactly.
func FuzzUnmarshalPayload(f *testing.F) {
	seeds := []msg{
		{tag: tagVoteRequest, op: OpWrite},
		{tag: tagVoteReply, from: 1, votes: 2, value: 3, stamp: 4, version: 5, qr: 1, qw: 5},
		{tag: tagSyncState, value: 1, stamp: 2, version: 3, qr: 2, qw: 6, votesSeen: 7},
		{tag: tagApplyWrite, value: -9, stamp: 11, wantAck: true},
		{tag: tagApplyAck, from: 3, stamp: 17},
		{tag: tagInstallAssign, qr: 3, qw: 5, version: 2, value: 1, stamp: 6},
		{tag: tagHistRequest},
		{tag: tagHistReply, from: 2, weights: &[]float64{0, 1.5, 2.25}},
		{tag: tagHeartbeat, from: 5, seq: 42},
		{tag: tagHeartbeatAck, from: 6, seq: 42, votes: 2, version: 9},
	}
	for _, p := range seeds {
		f.Add(mustMarshal(p))
	}
	f.Add([]byte{tagApplyWrite})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := unmarshalPayload(data)
		if err != nil {
			return
		}
		enc, err := marshalPayload(p)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", p, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("non-canonical decode: input %v re-encoded as %v", data, enc)
		}
		p2, err := unmarshalPayload(enc)
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", enc, err)
		}
		enc2, err := marshalPayload(p2)
		if err != nil {
			t.Fatalf("second marshal of %#v failed: %v", p2, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("unstable round trip: %v vs %v", enc, enc2)
		}
	})
}

// BenchmarkCodecVoteReply is the codec as the runtime drives it: encode
// into the reused buffer, decode in place.
func BenchmarkCodecVoteReply(b *testing.B) {
	c := &Cluster{}
	p := msg{tag: tagVoteReply, from: 7, votes: 3, value: -42, stamp: 99, version: 5, qr: 28, qw: 74}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.roundTrip(&p)
	}
}
