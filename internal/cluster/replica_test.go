package cluster

import (
	"reflect"
	"testing"

	"quorumkit/internal/quorum"
	"quorumkit/internal/store"
)

// TestReplicaReceive pins the one receiver both transports deliver to:
// for every request payload, on a full member and on an amnesiac one, what
// it replies (or that it abstains), how its copy changes, and how many log
// appends and sync barriers land on its disk. A full member starts with one
// unsynced append pending, so a reply's "durable before externalized"
// barrier is visible as exactly one sync.
func TestReplicaReceive(t *testing.T) {
	start := quorum.Copy{Value: 10, Stamp: 3, Version: 2, QR: 2, QW: 4}
	pushed := quorum.Copy{Value: 20, Stamp: 4, Version: 3, QR: 1, QW: 5}
	applied := quorum.Copy{Value: 20, Stamp: 4, Version: 2, QR: 2, QW: 4}

	cases := []struct {
		name           string
		in             msg
		full           msg         // a full member's reply (tag 0: none); an amnesiac always stays silent
		after          quorum.Copy // the copy afterwards, on either kind of member
		appends, syncs int64       // on a full member; an amnesiac's disk is never touched
		observed       int         // vote total recorded for the §4.2 estimator, 0 for none
	}{
		{name: "voteRequest", in: msg{tag: tagVoteRequest, op: OpWrite},
			full:  msg{tag: tagVoteReply, from: 1, votes: 2, value: 10, stamp: 3, version: 2, qr: 2, qw: 4},
			after: start, syncs: 1},
		{name: "syncState newer", in: msg{tag: tagSyncState, value: 20, stamp: 4, version: 3, qr: 1, qw: 5, votesSeen: 4},
			after: pushed, appends: 2, observed: 4},
		{name: "syncState stale", in: msg{tag: tagSyncState, value: 9, stamp: 2, version: 1, qr: 1, qw: 5},
			after: start},
		{name: "applyWrite", in: msg{tag: tagApplyWrite, value: 20, stamp: 4},
			after: applied, appends: 1},
		{name: "applyWrite stale", in: msg{tag: tagApplyWrite, value: 9, stamp: 3},
			after: start},
		{name: "applyWrite wantAck", in: msg{tag: tagApplyWrite, value: 20, stamp: 4, wantAck: true},
			full:  msg{tag: tagApplyAck, from: 1, stamp: 4},
			after: applied, appends: 1, syncs: 1},
		{name: "applyWrite wantAck duplicate", in: msg{tag: tagApplyWrite, value: 10, stamp: 3, wantAck: true},
			full:  msg{tag: tagApplyAck, from: 1, stamp: 3},
			after: start, syncs: 1},
		{name: "installAssign", in: msg{tag: tagInstallAssign, qr: 1, qw: 5, version: 3, value: 20, stamp: 4},
			after: pushed, appends: 1},
		{name: "histRequest", in: msg{tag: tagHistRequest},
			full:  msg{tag: tagHistReply, from: 1, weights: &[]float64{0, 0, 0, 0, 0, 1}},
			after: start},
		{name: "heartbeat", in: msg{tag: tagHeartbeat, from: 0, seq: 7},
			full:  msg{tag: tagHeartbeatAck, from: 1, seq: 7, votes: 2, version: 2},
			after: start, syncs: 1},
	}
	for _, tc := range cases {
		for _, amnesiac := range []bool{false, true} {
			name, want := tc.name+"/full", tc.full
			if amnesiac {
				name, want = tc.name+"/amnesiac", msg{}
			}
			t.Run(name, func(t *testing.T) {
				disk := store.NewMemDisk()
				r := replica{id: 1, votes: 2, bins: 6, Copy: start, store: store.Open(disk, 0)}
				r.store.Reset(r.Copy, nil)
				r.observe(5)
				r.amnesiac = amnesiac
				before, bytesBefore := r.store.Counters(), disk.Dump()

				got := msg{tag: tagVoteReply, votes: 9, weights: &[]float64{1}} // a reused slot
				if r.receive(&tc.in, &got); !reflect.DeepEqual(got, want) {
					t.Fatalf("reply %#v, want %#v", got, want)
				}
				if r.Copy != tc.after {
					t.Fatalf("copy %+v, want %+v", r.Copy, tc.after)
				}
				if r.amnesiac != amnesiac {
					t.Fatal("receive changed the amnesiac flag")
				}
				if got := r.hist[tc.observed]; tc.observed > 0 && got != 1 {
					t.Fatalf("observation of %d votes recorded %v times, want once", tc.observed, got)
				}
				after := r.store.Counters()
				appends, syncs := after.Appends-before.Appends, after.Syncs-before.Syncs
				if amnesiac {
					if !reflect.DeepEqual(disk.Dump(), bytesBefore) {
						t.Fatal("an amnesiac replica wrote to its disk")
					}
				} else if appends != tc.appends || syncs != tc.syncs {
					t.Fatalf("%d appends %d syncs, want %d and %d", appends, syncs, tc.appends, tc.syncs)
				}
				if syncs > 0 {
					for name, f := range disk.Dump() {
						if len(f.Unsynced) != 0 {
							t.Fatalf("replied with %d bytes of %q unsynced", len(f.Unsynced), name)
						}
					}
				}
			})
		}
	}

	// A reply payload is the coordinator's to gather, never a replica's to
	// receive.
	defer func() {
		if recover() == nil {
			t.Fatal("receive accepted a reply payload")
		}
	}()
	(&replica{}).receive(&msg{tag: tagVoteReply}, &msg{})
}
