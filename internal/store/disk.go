// Package store is the durable storage engine under both cluster runtimes:
// an append-only record log plus an atomically-replaced snapshot that
// together persist each node's protocol-critical state — value, stamp,
// quorum assignment, version number, and estimator history. Every log
// record, seal record and snapshot carries a CRC-32C (Castagnoli) checksum.
//
// The paper's dynamic quorum reassignment protocol (§5) preserves one-copy
// serializability only if a site's copy state survives crashes: a node that
// comes back voting with a stale quorum version silently re-admits the old
// read/write quorums and breaks the intersection argument. The engine
// therefore enforces an "fsync before you externalize" discipline (the
// runtimes sync before every vote reply, ack, and granted return) and a
// recovery path that distinguishes repairable damage (a torn unsynced tail:
// truncate to the last whole record) from unrepairable damage (corruption
// or loss of sealed state: the node must forget it ever voted and rejoin by
// state transfer — see the cluster runtimes' amnesiac mode).
//
// Everything runs against the Disk interface. The in-memory MemDisk backend
// models exactly the durability contract the engine relies on — appended
// bytes are volatile until Sync, renames are atomic and durable — which
// makes crash behaviour deterministic and byte-level exhaustively testable.
// FaultDisk wraps it with seed-planned damage from internal/faults.
//
// The package takes no locks. A disk belongs to the one NodeStore opened on
// it, and the runtime that owns the store serializes every call into it
// (the cluster runtimes hold the node's lock across each one), so a second
// lock here would only repeat theirs.
package store

import "sort"

// Disk is the byte-durability abstraction the store runs on. Appends are
// buffered until Sync; Rename and Remove are atomic, immediately-durable
// metadata operations (a journaled filesystem's guarantee); Crash discards
// every file's unsynced suffix. A Disk need not be safe for concurrent use:
// it belongs to one NodeStore, whose caller serializes every call into both.
type Disk interface {
	Open(name string) File
	Rename(oldName, newName string)
	Remove(name string)
	Crash()
}

// File is one append-only file on a Disk. Truncate is a durable metadata
// operation used by recovery to cut a damaged tail.
type File interface {
	Append(p []byte)
	Sync()
	Truncate(n int)
	Contents() []byte
	Len() int
}

// MemDisk is the deterministic in-memory Disk backend. Each file is one
// buffer and a durable watermark: Append writes the buffer once, Sync only
// moves the watermark, and Crash cuts the buffer back to it, so Crash has
// real teeth without a byte being copied twice. It iterates files in
// sorted name order wherever order matters, so injected byte-offset faults
// are reproducible.
//
// Rename keeps the file it replaces as one spare, emptied but with its
// buffer: the next Open of an absent name takes it, so the compaction cycle
// (snap.tmp created, renamed over snap) reuses the old snapshot's file and
// allocates nothing. The spare is no file — Dump, Crash, Wipe and FaultDisk
// never see it — and a handle to a replaced file must not be used again.
//
// A MemDisk belongs to the one NodeStore opened on it and is guarded by
// whatever serializes that store's calls. Tests may read it directly (Dump,
// clone) only while the runtime driving the store is quiescent.
type MemDisk struct {
	files map[string]*memFile
	spare *memFile
}

type memFile struct {
	data   []byte // content; data[:synced] is durable
	synced int
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk {
	return &MemDisk{files: make(map[string]*memFile)}
}

// Open returns a handle to name, creating an empty file if absent.
func (d *MemDisk) Open(name string) File {
	f, ok := d.files[name]
	if !ok {
		f, d.spare = d.spare, nil
		if f == nil {
			f = &memFile{}
		}
		d.files[name] = f
	}
	return f
}

// Rename moves oldName over newName, replacing it; the replaced file,
// emptied, becomes the spare. No-op if oldName does not exist.
func (d *MemDisk) Rename(oldName, newName string) {
	f, ok := d.files[oldName]
	if !ok {
		return
	}
	if old := d.files[newName]; old != nil && old != f {
		old.data, old.synced = old.data[:0], 0
		d.spare = old
	}
	delete(d.files, oldName)
	d.files[newName] = f
}

// Remove deletes name if present.
func (d *MemDisk) Remove(name string) {
	delete(d.files, name)
}

// Crash discards every file's unsynced suffix: the baseline power-loss
// semantics.
func (d *MemDisk) Crash() {
	for _, f := range d.files {
		f.data = f.data[:f.synced]
	}
}

// DumpedFile is one file's content split at the durable boundary, as
// returned by Dump.
type DumpedFile struct {
	Synced   []byte
	Unsynced []byte
}

// Dump returns a deep copy of every file, split at the durable boundary.
// It backs byte-level tests: two runs that followed the same protocol
// decisions must leave bit-identical media.
func (d *MemDisk) Dump() map[string]DumpedFile {
	out := make(map[string]DumpedFile, len(d.files))
	for name, f := range d.files {
		out[name] = DumpedFile{
			Synced:   append([]byte(nil), f.data[:f.synced]...),
			Unsynced: append([]byte(nil), f.data[f.synced:]...),
		}
	}
	return out
}

// Wipe loses the medium: every file, synced or not.
func (d *MemDisk) Wipe() {
	d.files = make(map[string]*memFile)
}

func (f *memFile) Append(p []byte) {
	f.data = append(f.data, p...)
}

func (f *memFile) Sync() {
	f.synced = len(f.data)
}

// Truncate cuts the file to its first n bytes (durably, like a journaled
// metadata operation). Synced content is cut only after the unsynced
// suffix is exhausted.
func (f *memFile) Truncate(n int) {
	n = max(n, 0)
	if n < len(f.data) {
		f.data = f.data[:n]
	}
	f.synced = min(f.synced, n)
}

func (f *memFile) Contents() []byte {
	return append([]byte(nil), f.data...)
}

func (f *memFile) Len() int {
	return len(f.data)
}

// sortedNames returns the file names in sorted order — the canonical
// iteration order for fault placement.
func (d *MemDisk) sortedNames() []string {
	out := make([]string, 0, len(d.files))
	for name := range d.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// unsyncedLen reports the unsynced suffix length of name (0 if absent).
func (d *MemDisk) unsyncedLen(name string) int {
	if f, ok := d.files[name]; ok {
		return len(f.data) - f.synced
	}
	return 0
}

// tear makes the first keep bytes of name's unsynced suffix survive the
// coming crash, modelling a partially-flushed page-cache write.
func (d *MemDisk) tear(name string, keep int) {
	f, ok := d.files[name]
	if !ok || keep <= 0 {
		return
	}
	f.synced = min(f.synced+keep, len(f.data))
	f.data = f.data[:f.synced]
}

// durableSize is the total synced byte count across all files.
func (d *MemDisk) durableSize() int {
	n := 0
	for _, f := range d.files {
		n += f.synced
	}
	return n
}

// flipBit flips one bit of durable content, addressing bytes across files
// in sorted name order.
func (d *MemDisk) flipBit(pos int, bit uint) {
	names := d.sortedNames()
	for _, name := range names {
		f := d.files[name]
		if pos < f.synced {
			f.data[pos] ^= 1 << (bit % 8)
			return
		}
		pos -= f.synced
	}
}

// clone deep-copies the disk — used by the crash-point sweep to branch the
// same history into many crash outcomes.
func (d *MemDisk) clone() *MemDisk {
	out := NewMemDisk()
	for name, f := range d.files {
		out.files[name] = &memFile{data: append([]byte(nil), f.data...), synced: f.synced}
	}
	return out
}
