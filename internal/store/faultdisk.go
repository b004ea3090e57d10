package store

import "quorumkit/internal/faults"

// FaultDisk wraps a MemDisk and applies seed-planned damage whenever the
// node crashes. All normal I/O passes straight through; only Crash differs,
// consulting the plan for the damage class of this (node, crash-sequence)
// pair and mapping its selectors onto concrete byte offsets:
//
//   - torn: each file with an unsynced suffix keeps a plan-chosen prefix of
//     it, so a record can be cut at any byte boundary;
//   - corrupt: after the unsynced suffix is dropped, one plan-chosen bit of
//     the surviving durable content flips;
//   - wipe: the medium is lost entirely.
//
// Because the class decision and every offset derive from (seed, node,
// seq), a crash history replays identically on both cluster runtimes.
type FaultDisk struct {
	mem  *MemDisk
	plan *faults.DiskPlan
	node int
	seq  uint64
}

// NewFaultDisk wraps mem with the fault schedule plan gives node.
func NewFaultDisk(mem *MemDisk, plan *faults.DiskPlan, node int) *FaultDisk {
	return &FaultDisk{mem: mem, plan: plan, node: node}
}

// Open delegates to the wrapped disk.
func (d *FaultDisk) Open(name string) File { return d.mem.Open(name) }

// Rename delegates to the wrapped disk.
func (d *FaultDisk) Rename(oldName, newName string) { d.mem.Rename(oldName, newName) }

// Remove delegates to the wrapped disk.
func (d *FaultDisk) Remove(name string) { d.mem.Remove(name) }

// Crash applies this crash's planned damage, then the baseline lost-suffix
// semantics.
func (d *FaultDisk) Crash() {
	f := d.plan.CrashFault(d.node, d.seq)
	d.seq++
	if f.Wipe {
		d.mem.Wipe()
		return
	}
	if f.Torn {
		for i, name := range d.mem.sortedNames() {
			if n := d.mem.unsyncedLen(name); n > 0 {
				d.mem.tear(name, f.Pick(uint64(i), n+1))
			}
		}
	}
	d.mem.Crash()
	if f.Corrupt {
		if total := d.mem.durableSize(); total > 0 {
			d.mem.flipBit(f.Pick(0xb17e, total), uint(f.Pick(0xf11b, 8)))
		}
	}
}
