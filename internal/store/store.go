package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"quorumkit/internal/quorum"
)

// The engine keeps three files per node:
//
//   - "log": checksummed append-only records, one per durable mutation.
//     Two record kinds: a full state record (value, stamp, version,
//     assignment) and an estimator observation (one vote-weight sample).
//   - "seal": fixed-size records (generation, sealed log length, crc)
//     appended and synced by every Sync *after* the log itself is flushed.
//     The last valid seal record is the recovery arbiter: it names exactly
//     how many log bytes the node may have externalized. Anomalies inside
//     that committed prefix are corruption (amnesia); anomalies beyond it
//     are at worst a torn tail of un-externalized appends (truncate).
//   - "snap": a whole-state snapshot written to "snap.tmp", synced, then
//     atomically renamed over "snap" (double-buffer + rename discipline).
//     Compaction resets log and seal to a new generation; a seal record
//     whose generation predates the snapshot is superseded and ignored.
//
// Replay folds records through quorum.Copy.Adopt, the merge rule the
// protocol uses in memory (higher version wins the assignment, higher
// stamp wins the value), so replaying any prefix of records — in any
// arrival order the runtimes produced them — lands on a state the node
// legitimately held.

const (
	logName     = "log"
	sealName    = "seal"
	snapName    = "snap"
	snapTmpName = "snap.tmp"

	recState byte = 1 // full durable state
	recObs   byte = 2 // one estimator observation (vote weight)

	recHeaderLen = 5  // kind (1) + payload length (4)
	recCRCLen    = 4  // trailing CRC-32C over header+payload
	stateLen     = 32 // value, stamp, version (8 each) + qr, qw (4 each)
	sealRecLen   = 16 // generation (8) + sealed length (4) + CRC-32C (4)
	snapHdrLen   = 16 // magic (4) + generation (8) + payload length (4)

	// maxRecLen bounds a record's payload; a length field claiming more is
	// damage, not data.
	maxRecLen = 1 << 16
	// maxBins bounds the estimator histogram so that a snapshot of it
	// (state, bin count, 8 bytes a bin) fits in maxRecLen: an observation
	// at or past it could replay from the log but never from the node's own
	// next snapshot.
	maxBins = (maxRecLen - stateLen - 4) / 8

	// defaultSnapEvery is the compaction cadence in log appends.
	defaultSnapEvery = 64
)

var snapMagic = [4]byte{'Q', 'K', 'S', '1'}

// castagnoli is the one checksum table: records, seals and snapshots all
// carry CRC-32C, which the standard library runs in hardware (SSE4.2,
// ARMv8) at any length. A log or seal record checksums 9–37 bytes, below
// the 64 at which the IEEE polynomial's fast kernel starts.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Typed recovery errors.
var (
	// ErrCorrupt: sealed (possibly externalized) durable state is damaged
	// or missing. The node must not vote from it — amnesiac rejoin only.
	ErrCorrupt = errors.New("store: durable state corrupt")
	// ErrNoState: the medium is empty (wiped or never initialized).
	ErrNoState = errors.New("store: no durable state")
)

// State is the protocol-critical durable state of one node: the protocol's
// one copy type, folded on replay by its one merge rule (Copy.Adopt), which
// makes replay order-independent.
type State = quorum.Copy

// Counters are the store's own metrics, and the only place they are
// counted: an obs registry attached to the runtime collects them when it
// snapshots.
type Counters struct {
	Appends           int64 // log records written
	Syncs             int64 // non-empty sync barriers (log flush + seal)
	Snapshots         int64 // compactions (snapshot + log/seal reset)
	TruncateRepairs   int64 // damaged-tail truncations during recovery
	CorruptRecoveries int64 // recoveries that found sealed state damaged
}

// NodeStore is one node's durable state engine. It is not safe for
// concurrent use: the caller serializes every call (the cluster runtimes
// make each one while holding the node's lock), and that serialization
// also covers the disk the store was opened on, which the store owns.
type NodeStore struct {
	disk      Disk
	snapEvery int

	log  File
	seal File

	gen       uint64 // current snapshot generation
	sealedLen int    // log bytes covered by the latest seal record
	dirty     bool   // unsynced log appends outstanding
	appends   int    // log appends since the last compaction

	cur      State // merge-fold mirror of the durable records
	hist     []float64
	counters Counters

	// buf is the one scratch buffer every record, seal and snapshot is
	// framed in, serialized with everything else by the caller. The disk
	// backends copy on Append, so reuse is safe, and the write path stays
	// allocation-free: a log append must cost a small fraction of a
	// protocol operation (see BenchmarkWriteDurable in internal/cluster,
	// run by `make bench-serve`; TestDurableWriteAllocs holds it at 0).
	buf []byte
}

// Open attaches an engine to disk. snapEvery is the compaction cadence in
// appends (≤0 selects the default). Open does not read the disk; call
// Reset to establish a fresh identity or Recover to load an existing one.
func Open(disk Disk, snapEvery int) *NodeStore {
	if snapEvery <= 0 {
		snapEvery = defaultSnapEvery
	}
	s := &NodeStore{disk: disk, snapEvery: snapEvery}
	s.log = disk.Open(logName)
	s.seal = disk.Open(sealName)
	return s
}

// SetDisk swaps the underlying disk — used to interpose FaultDisk over the
// same MemDisk after construction. Content is untouched; handles reopen.
func (s *NodeStore) SetDisk(d Disk) {
	s.disk = d
	s.log = d.Open(logName)
	s.seal = d.Open(sealName)
}

// Counters returns a copy of the store's metrics.
func (s *NodeStore) Counters() Counters {
	return s.counters
}

// PutState appends a full state record. Volatile until Sync.
func (s *NodeStore) PutState(st State) {
	s.cur.Adopt(st)
	s.endRecord(appendState(s.beginRecord(recState), st))
}

// PutObservation appends one estimator sample (a vote weight). Volatile
// until Sync. A weight outside [0, maxBins) is ignored: it has no encoding
// (negative) or no room in a snapshot.
func (s *NodeStore) PutObservation(votes int) {
	if votes < 0 || votes >= maxBins {
		return
	}
	foldObs(&s.hist, votes)
	s.endRecord(appendU32(s.beginRecord(recObs), uint32(votes)))
}

func foldObs(hist *[]float64, votes int) {
	for len(*hist) <= votes {
		*hist = append(*hist, 0)
	}
	(*hist)[votes]++
}

// beginRecord starts a log record in the scratch buffer: its kind and a
// length placeholder. The caller appends the payload straight after it and
// hands the result to endRecord.
func (s *NodeStore) beginRecord(kind byte) []byte {
	return append(s.buf[:0], kind, 0, 0, 0, 0)
}

// endRecord frames rec in place — patches the payload length, appends the
// checksum over header and payload — and appends it to the log.
func (s *NodeStore) endRecord(rec []byte) {
	binary.LittleEndian.PutUint32(rec[1:recHeaderLen], uint32(len(rec)-recHeaderLen))
	s.buf = appendU32(rec, checksum(rec))
	s.log.Append(s.buf)
	s.dirty = true
	s.appends++
	s.counters.Appends++
}

// Sync is the durability barrier: flush the log, then seal the flushed
// length. The engine's contract with the runtimes is that nothing derived
// from an append may be externalized (vote reply, ack, granted return)
// before Sync returns. A clean store syncs for free.
func (s *NodeStore) Sync() {
	if !s.dirty {
		return
	}
	s.log.Sync()
	s.sealedLen = s.log.Len()
	s.buf = appendSeal(s.buf[:0], s.gen, s.sealedLen)
	s.seal.Append(s.buf)
	s.seal.Sync()
	s.dirty = false
	s.counters.Syncs++
	if s.appends >= s.snapEvery {
		s.compact()
	}
}

// compact writes a snapshot of the folded state via the tmp+rename
// discipline and resets log and seal to the next generation. Every step is
// individually durable, so a crash anywhere leaves either the old
// generation fully intact or the new snapshot superseding the old log.
func (s *NodeStore) compact() {
	s.writeSnap(s.gen + 1)
	s.counters.Snapshots++
}

// writeSnap installs a snapshot of (s.cur, s.hist) as generation gen
// and resets log and seal. Both are framed in the scratch buffer, and on a
// MemDisk snap.tmp reopens the file the previous rename replaced, so a
// steady-state compaction allocates nothing.
func (s *NodeStore) writeSnap(gen uint64) {
	s.disk.Remove(snapTmpName)
	tmp := s.disk.Open(snapTmpName)
	s.buf = appendSnap(s.buf[:0], gen, s.cur, s.hist)
	tmp.Append(s.buf)
	tmp.Sync()
	s.disk.Rename(snapTmpName, snapName)
	s.gen = gen
	// Truncate rather than remove-and-reopen: byte-wise identical (an
	// empty file), but the backend keeps its buffers, so the steady-state
	// compaction cycle stops re-growing them from scratch.
	s.log.Truncate(0)
	s.resetSeal()
	s.appends = 0
	s.sealedLen = 0
	s.dirty = false
}

// Reset establishes a fresh durable identity: bootstrap at cluster
// construction, or the state adopted by an amnesiac rejoin. Prior content
// is discarded.
func (s *NodeStore) Reset(st State, hist []float64) {
	s.disk.Remove(snapName)
	s.disk.Remove(snapTmpName)
	s.cur = st
	s.hist = append([]float64(nil), hist...)
	// Log and seal are truncated (not removed) by the snapshot write, so
	// the open handles stay valid.
	s.writeSnap(s.gen + 1)
}

// Crash loses the unsynced suffix of every file (plus whatever damage a
// FaultDisk injects). The in-memory mirror is left stale on purpose: the
// node is down, and Recover rebuilds from bytes alone.
func (s *NodeStore) Crash() {
	s.disk.Crash()
}

// Recover reloads durable state after a crash. It returns the folded
// state and estimator history, repairing a damaged un-externalized tail by
// truncation, or fails with ErrCorrupt/ErrNoState when the sealed prefix
// cannot be trusted — in which case the caller must treat the node as
// amnesiac and rejoin by state transfer, never by voting.
func (s *NodeStore) Recover() (State, []float64, error) {
	s.log = s.disk.Open(logName)
	s.seal = s.disk.Open(sealName)
	snapB := s.disk.Open(snapName).Contents()
	sealB := s.seal.Contents()
	logB := s.log.Contents()
	if len(snapB) == 0 && len(sealB) == 0 && len(logB) == 0 {
		return State{}, nil, ErrNoState
	}
	gen, st, hist, err := decodeSnap(snapB)
	if err != nil {
		return State{}, nil, s.corrupt(err)
	}
	sealed, genMatch, sealRepairs, err := foldSeal(sealB, gen)
	if err != nil {
		return State{}, nil, s.corrupt(err)
	}
	if sealRepairs > 0 {
		s.seal.Truncate(len(sealB) - len(sealB)%sealRecLen)
		s.repair(sealRepairs)
	}
	if !genMatch {
		// Crash window inside compaction: the snapshot superseded the log
		// but the log/seal reset never completed. The old-generation log
		// must not replay on top of the snapshot that already contains it —
		// finish the interrupted compaction instead.
		if len(logB) > 0 {
			s.log.Truncate(0)
			s.repair(1)
		}
		s.gen = gen
		s.resetSeal()
		s.sealedLen = 0
		s.dirty = false
		s.appends = 0
		s.cur = st
		s.hist = hist
		return st, append([]float64(nil), hist...), nil
	}
	if sealed > len(logB) {
		return State{}, nil, s.corrupt(
			fmt.Errorf("sealed %d bytes, log holds %d", sealed, len(logB)))
	}
	// The committed prefix must parse exactly: any anomaly inside it means
	// externalized state is damaged.
	n, nrec, err := foldLog(logB[:sealed], &st, &hist, true)
	if err != nil || n != sealed {
		return State{}, nil, s.corrupt(err)
	}
	// Beyond the seal lies at worst a torn tail of appends whose Sync never
	// returned — nothing out there was externalized, so replay what parses
	// and cut the rest.
	consumed, tailRec, _ := foldLog(logB[sealed:], &st, &hist, false)
	if sealed+consumed < len(logB) {
		s.log.Truncate(sealed + consumed)
		s.repair(1)
	}
	s.gen = gen
	s.sealedLen = sealed
	s.dirty = false
	s.appends = nrec + tailRec
	s.cur = st
	s.hist = hist
	return st, append([]float64(nil), hist...), nil
}

// resetSeal starts the seal file of generation s.gen: one durable record
// sealing an empty log.
func (s *NodeStore) resetSeal() {
	s.seal.Truncate(0)
	s.buf = appendSeal(s.buf[:0], s.gen, 0)
	s.seal.Append(s.buf)
	s.seal.Sync()
}

func (s *NodeStore) corrupt(cause error) error {
	s.counters.CorruptRecoveries++
	if cause == nil || errors.Is(cause, ErrCorrupt) {
		return ErrCorrupt
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, cause)
}

func (s *NodeStore) repair(n int) {
	s.counters.TruncateRepairs += int64(n)
}

// foldLog parses records from b, folding each into st/hist. In strict mode
// any anomaly is an error; in lenient mode parsing stops at the first
// anomaly. Returns the clean byte count and the records folded.
func foldLog(b []byte, st *State, hist *[]float64, strict bool) (int, int, error) {
	off, count := 0, 0
	fail := func(format string, args ...any) (int, int, error) {
		if strict {
			return off, count, fmt.Errorf(format, args...)
		}
		return off, count, nil
	}
	for off < len(b) {
		rest := b[off:]
		if len(rest) < recHeaderLen {
			return fail("short record header at %d", off)
		}
		kind := rest[0]
		plen := int(binary.LittleEndian.Uint32(rest[1:5]))
		total := recHeaderLen + plen + recCRCLen
		if plen > maxRecLen || len(rest) < total {
			return fail("truncated record at %d", off)
		}
		want := binary.LittleEndian.Uint32(rest[recHeaderLen+plen : total])
		if checksum(rest[:recHeaderLen+plen]) != want {
			return fail("record checksum mismatch at %d", off)
		}
		payload := rest[recHeaderLen : recHeaderLen+plen]
		switch kind {
		case recState:
			if plen != stateLen {
				return fail("state record length %d at %d", plen, off)
			}
			st.Adopt(decodeState(payload))
		case recObs:
			if plen != 4 {
				return fail("obs record length %d at %d", plen, off)
			}
			votes := binary.LittleEndian.Uint32(payload)
			if votes >= maxBins {
				return fail("obs record weight %d at %d", votes, off)
			}
			foldObs(hist, int(votes))
		default:
			return fail("unknown record kind %d at %d", kind, off)
		}
		off += total
		count++
	}
	return off, count, nil
}

// foldSeal scans the seal file and returns the sealed log length for
// generation gen, and whether any seal record for that generation exists
// (when none does, the snapshot superseded the log: compaction crash
// window). A partial trailing record is a torn seal append whose Sync
// never returned — dropped, counted as a repair. A full-size record with a
// bad checksum is media corruption; it is survivable only when a later
// valid record supersedes it, because only the *latest* seal is
// load-bearing.
func foldSeal(b []byte, gen uint64) (sealed int, genMatch bool, repairs int, err error) {
	n := len(b) / sealRecLen
	lastValid := -1
	var lastGen uint64
	var lastLen int
	badSinceValid := false
	for i := 0; i < n; i++ {
		rec := b[i*sealRecLen : (i+1)*sealRecLen]
		if checksum(rec[:12]) != binary.LittleEndian.Uint32(rec[12:16]) {
			badSinceValid = true
			repairs++
			continue
		}
		lastValid = i
		lastGen = binary.LittleEndian.Uint64(rec[0:8])
		lastLen = int(binary.LittleEndian.Uint32(rec[8:12]))
		badSinceValid = false
	}
	if badSinceValid {
		return 0, false, 0, errors.New("latest seal record unreadable")
	}
	if len(b)%sealRecLen != 0 {
		repairs++
	}
	if lastValid == -1 || lastGen != gen {
		return 0, false, repairs, nil
	}
	return lastLen, true, repairs, nil
}

func decodeState(p []byte) State {
	return State{
		Value:   int64(binary.LittleEndian.Uint64(p[0:8])),
		Stamp:   int64(binary.LittleEndian.Uint64(p[8:16])),
		Version: int64(binary.LittleEndian.Uint64(p[16:24])),
		QR:      int(binary.LittleEndian.Uint32(p[24:28])),
		QW:      int(binary.LittleEndian.Uint32(p[28:32])),
	}
}

// appendSeal appends one seal record to b, allocation-free when b has
// capacity (the Sync hot path reuses a scratch buffer).
func appendSeal(b []byte, gen uint64, sealed int) []byte {
	n := len(b)
	b = appendU64(b, gen)
	b = appendU32(b, uint32(sealed))
	return appendU32(b, checksum(b[n:]))
}

// appendState appends the 32-byte encoding decodeState reads.
func appendState(b []byte, st State) []byte {
	b = appendU64(b, uint64(st.Value))
	b = appendU64(b, uint64(st.Stamp))
	b = appendU64(b, uint64(st.Version))
	b = appendU32(b, uint32(st.QR))
	return appendU32(b, uint32(st.QW))
}

// appendSnap appends one snapshot to b, framed in place: magic,
// generation and payload length, then the state, the bin count and the
// bins, then the checksum over all of it.
func appendSnap(b []byte, gen uint64, st State, hist []float64) []byte {
	n := len(b)
	b = append(b, snapMagic[:]...)
	b = appendU64(b, gen)
	b = appendU32(b, uint32(stateLen+4+8*len(hist)))
	b = appendState(b, st)
	b = appendU32(b, uint32(len(hist)))
	for _, w := range hist {
		b = appendU64(b, math.Float64bits(w))
	}
	return appendU32(b, checksum(b[n:]))
}

func decodeSnap(b []byte) (uint64, State, []float64, error) {
	if len(b) < snapHdrLen+recCRCLen {
		return 0, State{}, nil, errors.New("snapshot missing or short")
	}
	if [4]byte(b[0:4]) != snapMagic {
		return 0, State{}, nil, errors.New("snapshot magic mismatch")
	}
	gen := binary.LittleEndian.Uint64(b[4:12])
	plen := int(binary.LittleEndian.Uint32(b[12:16]))
	if plen > maxRecLen || len(b) != snapHdrLen+plen+recCRCLen {
		return 0, State{}, nil, errors.New("snapshot length mismatch")
	}
	want := binary.LittleEndian.Uint32(b[snapHdrLen+plen:])
	if checksum(b[:snapHdrLen+plen]) != want {
		return 0, State{}, nil, errors.New("snapshot checksum mismatch")
	}
	p := b[snapHdrLen : snapHdrLen+plen]
	if len(p) < stateLen+4 {
		return 0, State{}, nil, errors.New("snapshot payload short")
	}
	st := decodeState(p[:stateLen])
	bins := int(binary.LittleEndian.Uint32(p[stateLen : stateLen+4]))
	if len(p) != stateLen+4+8*bins {
		return 0, State{}, nil, errors.New("snapshot histogram length mismatch")
	}
	var hist []float64
	if bins > 0 {
		hist = make([]float64, bins)
		for i := 0; i < bins; i++ {
			hist[i] = math.Float64frombits(
				binary.LittleEndian.Uint64(p[stateLen+4+8*i:]))
		}
	}
	return gen, st, hist, nil
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}
