package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// EventType tags a structured trace event.
type EventType uint8

// Event types. The A/B payload fields are type-specific; the meaning of
// each is documented here and encoded in the JSONL field names.
const (
	// EvMsgSend: Node sent a protocol message to Peer; A is the wire
	// stage tag of the payload (see internal/faults stage constants).
	EvMsgSend EventType = iota
	// EvMsgRecv: Peer's message was delivered at Node; A is the stage.
	EvMsgRecv
	// EvMsgDrop: a message from Node to Peer was dropped (partition,
	// down endpoint, or injected fault); A is the stage.
	EvMsgDrop
	// EvQuorumGrant: the round at coordinator Node granted; Peer encodes
	// the operation kind (0 read, 1 write, 2 reassign), A the vote total
	// collected, B the resulting stamp (reads/writes) or version.
	EvQuorumGrant
	// EvQuorumDeny: as EvQuorumGrant, but the round was denied; B is the
	// quorum it fell short of.
	EvQuorumDeny
	// EvReassignInstall: coordinator Node installed a new assignment;
	// A is the new version, B packs the assignment as QR<<32|QW.
	EvReassignInstall
	// EvSuspect: Node's detector began suspecting Peer; A is the miss
	// count that crossed the threshold.
	EvSuspect
	// EvUnsuspect: Node's detector cleared its suspicion of Peer.
	EvUnsuspect
	// EvModeChange: Node's service mode changed; A is the old mode, B the
	// new (cluster.Mode values).
	EvModeChange
	// EvRetry: an operation at coordinator Node is being retried; A is
	// the attempt index just failed, B the backoff ticks chosen.
	EvRetry
	// EvCrash: an injected crash took Node down mid-operation.
	EvCrash
	// EvRecover: crashed Node rejoined with durable state.
	EvRecover
	// EvTopology: a simulator topology event; Peer is the site or link
	// index, A one of the sim event kind codes, B 1 for up / 0 for down.
	EvTopology
	// EvAmnesia: Node's durable state was missing or corrupt at recovery;
	// A is 1 when the store detected corruption, 0 when state was absent.
	EvAmnesia
	// EvRejoin: amnesiac Node completed a state-transfer rejoin; A is the
	// adopted assignment version, B the vote weight gathered.
	EvRejoin

	numEventTypes
)

var eventNames = [numEventTypes]string{
	"msg_send",
	"msg_recv",
	"msg_drop",
	"quorum_grant",
	"quorum_deny",
	"reassign_install",
	"suspect",
	"unsuspect",
	"mode_change",
	"retry",
	"crash",
	"recover",
	"topology",
	"amnesia",
	"rejoin",
}

// String implements fmt.Stringer.
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("EventType(%d)", uint8(t))
}

// Event is one structured trace record. Events are fixed-size so the ring
// buffer never allocates per emission.
type Event struct {
	Seq  uint64 // global emission sequence number, starting at 0
	Type EventType
	Node int32 // acting node / coordinator (-1 when not applicable)
	Peer int32 // peer, index, or op-kind (-1 when not applicable)
	A, B int64 // type-specific payload (see the EventType docs)
}

// Trace is a bounded ring buffer of events. Writers are serialized by a
// mutex — emission order is the observation order, which on the
// deterministic runtime makes the trace itself deterministic. When the
// buffer is full the oldest events are overwritten; Dropped reports how
// many were lost.
type Trace struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events emitted since creation
}

// DefaultTraceCap is the ring capacity used when a caller passes cap ≤ 0.
const DefaultTraceCap = 1 << 16

// NewTrace returns a tracer holding up to cap events.
func NewTrace(cap int) *Trace {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	return &Trace{buf: make([]Event, 0, cap)}
}

// emit appends one event, overwriting the oldest once the ring is full.
func (t *Trace) emit(typ EventType, node, peer int32, a, b int64) {
	t.mu.Lock()
	e := Event{Seq: t.next, Type: typ, Node: node, Peer: peer, A: a, B: b}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[int(t.next)%cap(t.buf)] = e
	}
	t.next++
	t.mu.Unlock()
}

// Len returns the number of events currently held.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Emitted returns the total number of events emitted since creation.
func (t *Trace) Emitted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Trace) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next - uint64(len(t.buf))
}

// Events returns the held events in emission order (a copy).
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		copy(out, t.buf)
		return out
	}
	// Ring has wrapped: oldest entry sits at next % cap.
	head := int(t.next) % cap(t.buf)
	n := copy(out, t.buf[head:])
	copy(out[n:], t.buf[:head])
	return out
}

// Filter returns the held events whose type is in types, in emission order.
func (t *Trace) Filter(types ...EventType) []Event {
	want := [numEventTypes]bool{}
	for _, ty := range types {
		want[ty] = true
	}
	all := t.Events()
	out := all[:0]
	for _, e := range all {
		if want[e.Type] {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL renders the held events as one JSON object per line, in
// emission order. The encoding is hand-rolled so the output is canonical:
// fixed key order, no floats, no escaping needed.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		if _, err := fmt.Fprintf(bw,
			`{"seq":%d,"type":%q,"node":%d,"peer":%d,"a":%d,"b":%d}`+"\n",
			e.Seq, e.Type.String(), e.Node, e.Peer, e.A, e.B); err != nil {
			return err
		}
	}
	return bw.Flush()
}
