package sim

import "fmt"

// Event kinds, ordered for deterministic tie-breaking at equal timestamps.
type eventKind uint8

const (
	evSiteFail eventKind = iota
	evSiteRepair
	evLinkFail
	evLinkRepair
	evAccess
	evShockBegin
	evShockEnd
)

// event is what the queue hands back: the decoded form of one slot.
type event struct {
	at   float64
	seq  uint64 // insertion order; breaks timestamp ties deterministically
	kind eventKind
	idx  int // site or link index
}

// slot is the queue's 16-byte storage form of an event. key packs
// seq<<27 | kind<<24 | idx, so key order is seq order and two slots compare
// with one float and one integer comparison.
type slot struct {
	at  float64
	key uint64
}

const (
	idxBits  = 24
	kindBits = 3
	seqShift = idxBits + kindBits
	maxSeq   = 1 << (64 - seqShift)

	// Every kind fits its field, or this constant underflows at compile time.
	_ = uint(1<<kindBits-1) - uint(evShockEnd)
)

func (a slot) less(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

func (s slot) event() event {
	return event{
		at:   s.at,
		seq:  s.key >> seqShift,
		kind: eventKind(s.key >> idxBits & (1<<kindBits - 1)),
		idx:  int(s.key & (1<<idxBits - 1)),
	}
}

// eventHeap is the simulator's event queue: a binary min-heap of slots in
// the total order (at, seq). That order is all a caller can observe — pops
// come out in it whatever the layout — so the layout is free to serve the
// simulator's access pattern: every step pops one event and nearly always
// pushes exactly one. pop therefore leaves the root vacant (hole) instead of
// refilling it from the tail, and the next push drops the new event into the
// root with a single sift-down, where a separate pop and push would sift
// down and then up. Any other operation that meets the hole first closes it
// the ordinary way. Sifts move a hole rather than swap pairs.
type eventHeap struct {
	items []slot
	seq   uint64
	hole  bool // items[0] is vacant: popped and not yet refilled
}

// slotFor assigns the next sequence number and packs the event. It panics,
// never wraps, when the index or the sequence outgrows its share of the key.
func (h *eventHeap) slotFor(at float64, kind eventKind, idx int) slot {
	h.seq++
	if uint(idx) >= 1<<idxBits || h.seq >= maxSeq {
		panic(fmt.Sprintf("sim: event (idx %d, seq %d) does not fit the queue's key", idx, h.seq))
	}
	return slot{at: at, key: h.seq<<seqShift | uint64(kind)<<idxBits | uint64(idx)}
}

func (h *eventHeap) push(at float64, kind eventKind, idx int) {
	s := h.slotFor(at, kind, idx)
	if h.hole {
		h.hole = false
		h.siftDown(0, s)
		return
	}
	h.items = append(h.items, s)
	items := h.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = s
}

// stage appends an event without restoring heap order; heapify must run
// before the next pop, peek or push. Seeding a batch of clocks this way is
// linear where pushing them one by one is not.
func (h *eventHeap) stage(at float64, kind eventKind, idx int) {
	if h.hole {
		h.closeHole()
	}
	h.items = append(h.items, h.slotFor(at, kind, idx))
}

// heapify establishes heap order over everything staged (Floyd).
func (h *eventHeap) heapify() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.siftDown(i, h.items[i])
	}
}

// siftDown places s in the subtree rooted at the vacant position i.
func (h *eventHeap) siftDown(i int, s slot) {
	items := h.items
	n := len(items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && items[r].less(items[c]) {
			c = r
		}
		if !items[c].less(s) {
			break
		}
		items[i] = items[c]
		i = c
	}
	items[i] = s
}

// closeHole refills a vacant root from the tail.
func (h *eventHeap) closeHole() {
	h.hole = false
	last := len(h.items) - 1
	s := h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0, s)
	}
}

func (h *eventHeap) pop() event {
	if h.hole {
		h.closeHole()
	}
	h.hole = true
	return h.items[0].event()
}

func (h *eventHeap) peek() event {
	if h.hole {
		h.closeHole()
	}
	return h.items[0].event()
}

func (h *eventHeap) len() int {
	if h.hole {
		return len(h.items) - 1
	}
	return len(h.items)
}

// reset empties the heap and restarts the tie-breaking sequence, keeping
// the allocated backing array so a reused simulator pushes into warm
// storage.
func (h *eventHeap) reset() {
	h.items = h.items[:0]
	h.seq = 0
	h.hole = false
}

// grow ensures capacity for at least n events without changing contents.
func (h *eventHeap) grow(n int) {
	if cap(h.items) < n {
		items := make([]slot, len(h.items), n)
		copy(items, h.items)
		h.items = items
	}
}
