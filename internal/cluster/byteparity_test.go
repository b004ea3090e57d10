package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"quorumkit/internal/faults"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// The two runtimes must leave bit-identical durable media when driven by
// the same schedule and fault plans — a far stronger claim than outcome
// equality, and the invariant the disk fault injector depends on (bitflip
// offsets are pure functions of durable content, so any byte divergence
// desynchronizes all subsequent damage). This lockstep test replays a
// schedule one step at a time and diffs every node's disk after each step:
// the cross-runtime chaos schedule under two disk fault mixes, and the
// serving layer fault-free, with and without an installed strategy (the
// paths whose sync barriers the concurrent runtime used to skip).
func TestCrossRuntimeByteParity(t *testing.T) {
	const n = 5
	g := graph.Complete(n)
	build := func(t *testing.T) (*Cluster, *Async) {
		c, err := New(graph.NewState(g, nil), quorum.Majority(n))
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAsync(graph.NewState(g, nil), quorum.Majority(n))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		return c, a
	}
	// lockstep applies each step to both runtimes and then requires every
	// node's disk to match byte for byte, synced and unsynced.
	lockstep := func(t *testing.T, c *Cluster, a *Async, steps int, step func(step int, rt Runtime)) {
		for s := 0; s < steps; s++ {
			step(s, c)
			step(s, a)
			// Quiesce the async inboxes: FIFO order means an acked no-op
			// flushes everything delivered before the disks are dumped.
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				select {
				case a.nodes[i].inbox <- asyncMsg{ack: &wg}:
				case <-a.nodes[i].quit:
					wg.Done()
				}
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				dc := c.disks[i].Dump()
				da := a.disks[i].Dump()
				if !reflect.DeepEqual(dc, da) {
					for name, fc := range dc {
						if fa := da[name]; !reflect.DeepEqual(fc, fa) {
							t.Logf("file %q: det synced=%d unsynced=%d, async synced=%d unsynced=%d",
								name, len(fc.Synced), len(fc.Unsynced), len(fa.Synced), len(fa.Unsynced))
						}
					}
					t.Fatalf("step %d: node %d durable bytes diverged; det crashed=%v async crashed=%v",
						s, i, fmt.Sprint(c.Crashed()), fmt.Sprint(a.Crashed()))
				}
			}
		}
	}

	mix, _ := faults.Named("crash")
	for _, dname := range []string{"disk-torn", "disk-all"} {
		t.Run(dname, func(t *testing.T) {
			dmix, err := faults.NamedDisk(dname)
			if err != nil {
				t.Fatalf("unknown disk mix %q: %v", dname, err)
			}
			plan := faults.NewPlan(4242, mix)
			c, a := build(t)
			for _, rt := range []Runtime{c, a} {
				rt.EnableChaos(plan, DefaultRetryPolicy())
				rt.EnableDiskChaos(faults.NewDiskPlan(99, dmix))
			}
			src := rng.New(13)
			sched := make([][3]int, 400)
			for i := range sched {
				sched[i] = [3]int{src.Intn(100), src.Intn(n), src.Intn(1 << 30)}
			}
			lockstep(t, c, a, len(sched), func(step int, rt Runtime) {
				for _, node := range rt.Crashed() {
					if plan.RecoverNow(uint64(step), node) {
						rt.Recover(node)
					}
				}
				action, site, extra := sched[step][0], sched[step][1], sched[step][2]
				switch {
				case action < 50:
					rt.ChaosRead(site)
				case action < 85:
					rt.ChaosWrite(site, int64(step)+1)
				case action < 90:
					qr := 1 + extra%((n+1)/2)
					rt.ChaosReassign(site, quorum.Assignment{QR: qr, QW: n + 1 - qr})
				default:
					if l := extra % g.M(); extra>>16&1 == 0 {
						rt.FailLink(l)
					} else {
						rt.RepairLink(l)
					}
				}
			})
		})
	}

	// Fault-free serving: every grant must leave the coordinator's own log
	// as durable on one runtime as on the other.
	serve := func(step int, rt Runtime) {
		if site := step % n; step%3 == 0 {
			rt.ServeWrite(site, int64(step)+1)
		} else {
			rt.ServeRead(site)
		}
	}
	t.Run("serve", func(t *testing.T) {
		c, a := build(t)
		lockstep(t, c, a, 200, serve)
	})
	t.Run("serve-strategy", func(t *testing.T) {
		c, a := build(t)
		for _, rt := range []Runtime{c, a} {
			if err := rt.InstallStrategy(handStrategy5(), quorum.Majority(n), rt.NodeVersion(0), 3, 7); err != nil {
				t.Fatal(err)
			}
		}
		lockstep(t, c, a, 200, serve)
		if ct := a.StrategyCounters(); ct.SampledReads == 0 || ct.SampledWrites == 0 || ct != c.StrategyCounters() {
			t.Fatalf("strategy never served, or the ladders diverged: det %+v async %+v", c.StrategyCounters(), ct)
		}
	})
}
