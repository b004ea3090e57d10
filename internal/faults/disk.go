package faults

import (
	"fmt"
	"sort"
)

// Disk faults extend the message-level fault taxonomy down to the storage
// layer. Like message faults, a disk fault schedule is a pure function of
// logical identity — here (node, crash sequence number) — hashed with the
// plan seed, so the deterministic and concurrent runtimes observe the same
// storage damage for the same crash history and every run reproduces from
// its seed.
//
// The fault classes model what real media and filesystems do to an
// append-only log at crash time:
//
//   - lost suffix: everything appended but not fsynced is gone. This is
//     the baseline crash semantics and always applies.
//   - torn write: a *prefix* of the unsynced suffix of a file survives —
//     the page cache flushed part of an append before power was cut. The
//     survivor can end mid-record at any byte offset.
//   - bit corruption: one bit of already-durable content flips (media
//     decay, firmware bugs). Unlike a torn tail this damages state the
//     node may already have externalized, so recovery must refuse to
//     trust the log rather than silently repair it.
//   - wipe: the durable state is lost entirely (disk replacement).
//
// Torn writes are repairable (truncate to the last whole record);
// corruption and wipe force the node into amnesiac rejoin.

// DiskMix is a disk fault mixture: per-crash probabilities of each damage
// class. The classes are checked in order wipe, corrupt, torn; at most one
// applies per crash (beyond the always-on lost-suffix semantics).
type DiskMix struct {
	Name string

	Torn    float64 // P(a prefix of each file's unsynced suffix survives)
	Corrupt float64 // P(one durable bit flips)
	Wipe    float64 // P(all durable state is lost)
}

// Validate rejects nonsensical mixtures.
func (m DiskMix) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"Torn", m.Torn}, {"Corrupt", m.Corrupt}, {"Wipe", m.Wipe},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: disk %s=%g out of [0,1]", p.name, p.v)
		}
	}
	if m.Wipe+m.Corrupt+m.Torn > 1 {
		return fmt.Errorf("faults: disk mix %q probabilities sum to %g > 1",
			m.Name, m.Wipe+m.Corrupt+m.Torn)
	}
	return nil
}

// The standard disk mixtures exercised by the disk-chaos harness.
var diskMixes = map[string]DiskMix{
	"disk-none":    {Name: "disk-none"},
	"disk-torn":    {Name: "disk-torn", Torn: 0.6},
	"disk-corrupt": {Name: "disk-corrupt", Corrupt: 0.35},
	"disk-wipe":    {Name: "disk-wipe", Wipe: 0.35},
	"disk-all":     {Name: "disk-all", Torn: 0.35, Corrupt: 0.15, Wipe: 0.10},
}

// NamedDisk returns a predefined disk mixture by name. Bare names without
// the "disk-" prefix are accepted for CLI convenience.
func NamedDisk(name string) (DiskMix, error) {
	if m, ok := diskMixes[name]; ok {
		return m, nil
	}
	if m, ok := diskMixes["disk-"+name]; ok {
		return m, nil
	}
	return DiskMix{}, fmt.Errorf("faults: unknown disk mix %q (have %v)", name, DiskNames())
}

// DiskNames lists the predefined disk mixtures in sorted order.
func DiskNames() []string {
	out := make([]string, 0, len(diskMixes))
	for k := range diskMixes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DiskFault is the damage one crash inflicts on one node's durable state.
// At most one of Wipe/Corrupt/Torn is set. sel seeds the offset choices a
// backend derives via Pick, so the byte-level damage is as reproducible as
// the class decision.
type DiskFault struct {
	Wipe    bool
	Corrupt bool
	Torn    bool

	sel uint64
}

// Pick derives a deterministic choice in [0, n) from the fault's selector
// and a caller salt (file index, offset vs bit, ...). Backends use it to
// map the abstract fault onto concrete byte offsets without re-deriving
// plan hashes. n must be positive.
func (f DiskFault) Pick(salt uint64, n int) int {
	return int(mix64(f.sel+0x9e3779b97f4a7c15+salt) % uint64(n))
}

// DiskPlan is a deterministic disk fault schedule: a seed plus a disk
// mixture. Plans are immutable and safe for concurrent use.
type DiskPlan struct {
	seed uint64
	mix  DiskMix
}

// NewDiskPlan builds a plan. It panics on an invalid mixture (plans are
// constructed from trusted test/CLI configuration).
func NewDiskPlan(seed uint64, mix DiskMix) *DiskPlan {
	if err := mix.Validate(); err != nil {
		panic(err)
	}
	return &DiskPlan{seed: seed, mix: mix}
}

// CrashFault decides what damage the seq-th crash of node inflicts on its
// durable state. The decision depends only on (seed, node, seq).
func (p *DiskPlan) CrashFault(node int, seq uint64) DiskFault {
	h := mix64(p.seed + 0x9e3779b97f4a7c15 + uint64(node))
	h = mix64(h + 0x9e3779b97f4a7c15 + seq)
	f := DiskFault{sel: mix64(h + 0xd15c)}
	u := unit(h)
	switch {
	case u < p.mix.Wipe:
		f.Wipe = true
	case u < p.mix.Wipe+p.mix.Corrupt:
		f.Corrupt = true
	case u < p.mix.Wipe+p.mix.Corrupt+p.mix.Torn:
		f.Torn = true
	}
	return f
}
