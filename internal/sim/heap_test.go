package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"quorumkit/internal/rng"
)

// TestHeapPropertySorted: any sequence of pushes pops in non-decreasing
// time order with FIFO tie-breaking.
func TestHeapPropertySorted(t *testing.T) {
	f := func(raw []uint16) bool {
		var h eventHeap
		for i, r := range raw {
			// Coarse quantization produces plenty of ties.
			h.push(float64(r%16), evAccess, i)
		}
		lastAt := -1.0
		lastSeq := uint64(0)
		for h.len() > 0 {
			e := h.pop()
			if e.at < lastAt {
				return false
			}
			if e.at == lastAt && e.seq < lastSeq {
				return false // FIFO among ties
			}
			lastAt, lastSeq = e.at, e.seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	src := rng.New(99)
	var h eventHeap
	var popped []float64
	pending := 0
	for step := 0; step < 5000; step++ {
		if pending == 0 || src.Bernoulli(0.6) {
			h.push(src.Float64()*100, evAccess, step)
			pending++
		} else {
			popped = append(popped, h.pop().at)
			pending--
		}
	}
	for h.len() > 0 {
		popped = append(popped, h.pop().at)
	}
	// Not globally sorted (interleaving), but every drain segment is; a
	// cheap but strong invariant: re-inserting everything and draining
	// yields the global sorted order.
	var h2 eventHeap
	for i, at := range popped {
		h2.push(at, evAccess, i)
	}
	var all []float64
	for h2.len() > 0 {
		all = append(all, h2.pop().at)
	}
	if !sort.Float64sAreSorted(all) {
		t.Fatal("drain not sorted")
	}
	if len(all) != len(popped) {
		t.Fatal("lost events")
	}
}

func TestHeapPeek(t *testing.T) {
	var h eventHeap
	h.push(5, evAccess, 0)
	h.push(2, evSiteFail, 1)
	if h.peek().at != 2 {
		t.Fatalf("peek %v", h.peek())
	}
	if h.pop().at != 2 || h.peek().at != 5 {
		t.Fatal("pop/peek order")
	}
}

// queueModel is the oracle for the event queue: a slice kept sorted by
// (at, seq), its own sequence counter, nothing shared with eventHeap.
type queueModel struct {
	items []event
	seq   uint64
}

func (m *queueModel) push(at float64, kind eventKind, idx int) {
	m.seq++
	e := event{at: at, seq: m.seq, kind: kind, idx: idx}
	i := sort.Search(len(m.items), func(i int) bool {
		o := m.items[i]
		return o.at > at || (o.at == at && o.seq > e.seq)
	})
	m.items = append(m.items, event{})
	copy(m.items[i+1:], m.items[i:])
	m.items[i] = e
}

func (m *queueModel) pop() event {
	e := m.items[0]
	m.items = m.items[1:]
	return e
}

// TestHeapAgainstModel runs random programs of push/pop/peek/len/reset and
// stage+heapify against the sorted-slice model and compares every returned
// (at, seq, kind, idx). The programs are biased towards the sequences the
// pending hole makes interesting: pop→pop, pop→push→push, peek and len
// right after a pop, reset and stage with a hole pending, and timestamps
// drawn from a handful of values so ties are the rule.
func TestHeapAgainstModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		var h eventHeap
		var m queueModel
		ties := 1 + src.Intn(6) // distinct timestamps in this program
		draw := func() (float64, eventKind, int) {
			return float64(src.Intn(ties)), eventKind(src.Intn(int(evShockEnd) + 1)), src.Intn(1 << idxBits)
		}
		check := func(step int, op string, got, want event) {
			t.Helper()
			if got != want {
				t.Fatalf("seed %d step %d: %s returned %+v, model %+v", seed, step, op, got, want)
			}
		}
		for step := 0; step < 4000; step++ {
			if got := h.len(); got != len(m.items) {
				t.Fatalf("seed %d step %d: len %d, model %d", seed, step, got, len(m.items))
			}
			switch op := src.Intn(100); {
			case op < 35:
				at, kind, idx := draw()
				h.push(at, kind, idx)
				m.push(at, kind, idx)
			case op < 70:
				if len(m.items) > 0 {
					check(step, "pop", h.pop(), m.pop())
				}
			case op < 80: // pop, then one to three pushes into the hole
				if len(m.items) == 0 {
					continue
				}
				check(step, "pop", h.pop(), m.pop())
				for k := src.Intn(3) + 1; k > 0; k-- {
					at, kind, idx := draw()
					h.push(at, kind, idx)
					m.push(at, kind, idx)
				}
			case op < 90:
				if len(m.items) > 0 {
					check(step, "peek", h.peek(), m.items[0])
				}
			case op < 97: // a batch staged on top of whatever is pending
				for k := src.Intn(20); k > 0; k-- {
					at, kind, idx := draw()
					h.stage(at, kind, idx)
					m.push(at, kind, idx)
				}
				h.heapify()
			default:
				h.reset()
				m = queueModel{}
			}
		}
		for len(m.items) > 0 {
			check(-1, "drain pop", h.pop(), m.pop())
		}
		if h.len() != 0 {
			t.Fatalf("seed %d: %d events left after the model drained", seed, h.len())
		}
	}
}

// TestHeapKeyLimits: an index or a sequence number that does not fit its
// share of the packed key panics rather than wrapping into another field.
func TestHeapKeyLimits(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	var h eventHeap
	h.push(1, evShockEnd, 1<<idxBits-1)
	if e := h.pop(); e.kind != evShockEnd || e.idx != 1<<idxBits-1 || e.seq != 1 {
		t.Fatalf("largest legal index came back as %+v", e)
	}
	mustPanic("idx = 2^24", func() { h.push(1, evAccess, 1<<idxBits) })
	mustPanic("idx < 0", func() { h.push(1, evAccess, -1) })
	h.reset()
	h.seq = maxSeq - 2
	h.push(1, evAccess, 0)
	if e := h.pop(); e.seq != maxSeq-1 {
		t.Fatalf("largest legal seq came back as %d", e.seq)
	}
	mustPanic("seq = 2^37", func() { h.push(1, evAccess, 0) })
}
