package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"quorumkit/internal/faults"
)

// Binary wire format for the protocol messages. The deterministic runtime
// does not need serialization (messages are delivered in-process), but a
// deployable implementation does; when wire mode is enabled the codec is
// exercised on every body, once, where Cluster stores it — a request before
// it fans out, a reply where its replica writes it — so the protocol tests
// also certify the encoding. Decoding is a pure function of the bytes, so
// one decode serves every copy queued to the body.
//
// Layout (little-endian):
//
//	byte 0       message type tag
//	bytes 1..    fields in declaration order; ints as int64/uint32
const (
	tagVoteRequest byte = iota + 1
	tagVoteReply
	tagSyncState
	tagApplyWrite
	tagInstallAssign
	tagHistRequest
	tagHistReply
	tagApplyAck
	tagHeartbeat
	tagHeartbeatAck
)

// kinds describes each message kind by tag: its name in errors, the size of
// its fixed-length body, its fault-decision stage, and the kind it is
// answered with (0: none).
var kinds = [...]struct {
	name  string
	size  int
	stage uint8
	reply byte
}{
	tagVoteRequest:   {"voteRequest", 1, faults.StageVoteRequest, tagVoteReply},
	tagVoteReply:     {"voteReply", 4 + 4 + 8 + 8 + 8 + 4 + 4, faults.StageVoteReply, 0},
	tagSyncState:     {"syncState", 8 + 8 + 8 + 4 + 4 + 4, faults.StageSync, 0},
	tagApplyWrite:    {"applyWrite", 8 + 8 + 1, faults.StageApply, tagApplyAck},
	tagInstallAssign: {"installAssign", 4 + 4 + 8 + 8 + 8, faults.StageInstall, 0},
	tagHistRequest:   {"histRequest", 0, faults.StageHistRequest, tagHistReply},
	tagHistReply:     {"histReply", 4 + 4, faults.StageHistReply, 0}, // plus 8 per weight
	tagApplyAck:      {"applyAck", 4 + 8, faults.StageApplyAck, 0},
	tagHeartbeat:     {"heartbeat", 4 + 8, faults.StageHeartbeat, tagHeartbeatAck},
	tagHeartbeatAck:  {"heartbeatAck", 4 + 8 + 4 + 8, faults.StageHeartbeatAck, 0},
}

// stageOf maps a message tag to its fault-decision stage.
func stageOf(tag byte) uint8 {
	if tag == 0 || int(tag) >= len(kinds) {
		panic(fmt.Sprintf("cluster: unknown message tag %d", tag))
	}
	return kinds[tag].stage
}

// replyStage is the fault-decision stage of the reply a request is
// answered with: it keys the decision of the return leg.
func replyStage(req byte) uint8 {
	stageOf(req)
	if kinds[req].reply == 0 {
		panic("cluster: exchange of a " + kinds[req].name + ", which has no reply")
	}
	return kinds[kinds[req].reply].stage
}

// appendMsg appends the encoding of m to buf.
func appendMsg(buf []byte, m *msg) ([]byte, error) {
	le := binary.LittleEndian
	buf = append(buf, m.tag)
	switch m.tag {
	case tagVoteRequest:
		buf = append(buf, byte(m.op))
	case tagVoteReply:
		buf = le.AppendUint32(buf, uint32(m.from))
		buf = le.AppendUint32(buf, uint32(m.votes))
		buf = le.AppendUint64(buf, uint64(m.value))
		buf = le.AppendUint64(buf, uint64(m.stamp))
		buf = le.AppendUint64(buf, uint64(m.version))
		buf = le.AppendUint32(buf, uint32(m.qr))
		buf = le.AppendUint32(buf, uint32(m.qw))
	case tagSyncState:
		buf = le.AppendUint64(buf, uint64(m.value))
		buf = le.AppendUint64(buf, uint64(m.stamp))
		buf = le.AppendUint64(buf, uint64(m.version))
		buf = le.AppendUint32(buf, uint32(m.qr))
		buf = le.AppendUint32(buf, uint32(m.qw))
		buf = le.AppendUint32(buf, uint32(m.votesSeen))
	case tagHistRequest:
	case tagHistReply:
		buf = le.AppendUint32(buf, uint32(m.from))
		row := m.row()
		buf = le.AppendUint32(buf, uint32(len(row)))
		for _, w := range row {
			buf = le.AppendUint64(buf, math.Float64bits(w))
		}
	case tagApplyWrite:
		buf = le.AppendUint64(buf, uint64(m.value))
		buf = le.AppendUint64(buf, uint64(m.stamp))
		if m.wantAck {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case tagApplyAck:
		buf = le.AppendUint32(buf, uint32(m.from))
		buf = le.AppendUint64(buf, uint64(m.stamp))
	case tagHeartbeat:
		buf = le.AppendUint32(buf, uint32(m.from))
		buf = le.AppendUint64(buf, uint64(m.seq))
	case tagHeartbeatAck:
		buf = le.AppendUint32(buf, uint32(m.from))
		buf = le.AppendUint64(buf, uint64(m.seq))
		buf = le.AppendUint32(buf, uint32(m.votes))
		buf = le.AppendUint64(buf, uint64(m.version))
	case tagInstallAssign:
		buf = le.AppendUint32(buf, uint32(m.qr))
		buf = le.AppendUint32(buf, uint32(m.qw))
		buf = le.AppendUint64(buf, uint64(m.version))
		buf = le.AppendUint64(buf, uint64(m.value))
		buf = le.AppendUint64(buf, uint64(m.stamp))
	default:
		return nil, fmt.Errorf("cluster: cannot marshal message tag %d", m.tag)
	}
	return buf, nil
}

// errShortBuffer reports a message body shorter than its kind's fields.
var errShortBuffer = errors.New("short buffer")

// decodeMsg decodes bytes produced by appendMsg into m, which it zeroes
// first: a field the kind does not carry never survives from the previous
// use of the struct. The body length is checked against the kind's before
// any field is read; a short or oversized buffer yields a wrapped error
// naming the message kind, never a panic. Decoding is canonical: a buffer
// that decodes successfully re-encodes to the same bytes. The histogram of a
// histReply is copied out of data, which the caller may reuse, into the row
// m.weights referred to on entry (its backing array when it has room), so
// decoding a message in place, as Cluster.roundTrip does, allocates
// nothing; only a message that held no row gets a new one.
func decodeMsg(data []byte, m *msg) error {
	row := m.weights
	*m = msg{}
	if len(data) == 0 {
		return errors.New("cluster: empty message")
	}
	tag, b := data[0], data[1:]
	if tag == 0 || int(tag) >= len(kinds) {
		return fmt.Errorf("cluster: unknown message tag %d", tag)
	}
	k := &kinds[tag]
	fail := func(err error) error { return fmt.Errorf("cluster: decode %s: %w", k.name, err) }
	if len(b) < k.size {
		return fail(errShortBuffer)
	}
	m.tag = tag
	want := k.size
	le := binary.LittleEndian
	switch tag {
	case tagVoteRequest:
		m.op = OpKind(b[0])
	case tagVoteReply:
		m.from, m.votes = int32(le.Uint32(b)), int32(le.Uint32(b[4:]))
		m.value, m.stamp, m.version = int64(le.Uint64(b[8:])), int64(le.Uint64(b[16:])), int64(le.Uint64(b[24:]))
		m.qr, m.qw = int32(le.Uint32(b[32:])), int32(le.Uint32(b[36:]))
	case tagSyncState:
		m.value, m.stamp, m.version = int64(le.Uint64(b)), int64(le.Uint64(b[8:])), int64(le.Uint64(b[16:]))
		m.qr, m.qw, m.votesSeen = int32(le.Uint32(b[24:])), int32(le.Uint32(b[28:])), int32(le.Uint32(b[32:]))
	case tagHistRequest:
	case tagHistReply:
		m.from = int32(le.Uint32(b))
		count := le.Uint32(b[4:])
		if count > 1<<20 {
			return fail(fmt.Errorf("histogram too large (%d bins)", count))
		}
		// Check the remaining length before allocating, so a forged count
		// cannot demand a large allocation backed by a short buffer.
		want += 8 * int(count)
		if len(b) < want {
			return fail(errShortBuffer)
		}
		if count > 0 {
			if row == nil {
				row = new([]float64)
			}
			if cap(*row) < int(count) {
				*row = make([]float64, count)
			}
			w := (*row)[:count]
			for i := range w {
				w[i] = math.Float64frombits(le.Uint64(b[8+8*i:]))
			}
			*row, m.weights = w, row
		}
	case tagApplyWrite:
		m.value, m.stamp = int64(le.Uint64(b)), int64(le.Uint64(b[8:]))
		if b[16] > 1 {
			return fail(fmt.Errorf("invalid wantAck byte %d", b[16]))
		}
		m.wantAck = b[16] == 1
	case tagApplyAck:
		m.from, m.stamp = int32(le.Uint32(b)), int64(le.Uint64(b[4:]))
	case tagHeartbeat:
		m.from, m.seq = int32(le.Uint32(b)), int64(le.Uint64(b[4:]))
	case tagHeartbeatAck:
		m.from, m.seq = int32(le.Uint32(b)), int64(le.Uint64(b[4:]))
		m.votes, m.version = int32(le.Uint32(b[12:])), int64(le.Uint64(b[16:]))
	case tagInstallAssign:
		m.qr, m.qw = int32(le.Uint32(b)), int32(le.Uint32(b[4:]))
		m.version, m.value, m.stamp = int64(le.Uint64(b[8:])), int64(le.Uint64(b[16:])), int64(le.Uint64(b[24:]))
	}
	if len(b) != want {
		return fail(fmt.Errorf("%d trailing bytes", len(b)-want))
	}
	return nil
}

// SetWireMode makes the cluster round-trip every body, once, through the
// binary codec, so protocol runs exercise serialization end to end.
func (c *Cluster) SetWireMode(on bool) { c.wireMode = on }

// roundTrip encodes m into the cluster's wire buffer and decodes it back in
// place, panicking on any error — a codec bug must not silently corrupt a
// protocol run.
func (c *Cluster) roundTrip(m *msg) {
	var err error
	if c.wire, err = appendMsg(c.wire[:0], m); err == nil {
		err = decodeMsg(c.wire, m)
	}
	if err != nil {
		panic(err)
	}
}
