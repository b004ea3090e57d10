package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// logRecord returns the bytes one record of kind and payload appends to
// the log, framed by the store's own beginRecord/endRecord.
func logRecord(kind byte, payload []byte) []byte {
	s := Open(NewMemDisk(), 0)
	s.endRecord(append(s.beginRecord(kind), payload...))
	return s.log.Contents()
}

// encodeStateRec builds one valid state log record for seeding.
func encodeStateRec(st State) []byte { return logRecord(recState, appendState(nil, st)) }

func encodeObsRec(votes uint32) []byte { return logRecord(recObs, appendU32(nil, votes)) }

// FuzzFoldLog drives arbitrary bytes plus an arbitrary sealed boundary
// through the log replayer. Invariants: no panic; lenient replay consumes
// a clean prefix (strict replay of what it consumed must succeed and agree);
// strict replay of a damaged sealed region must error rather than skip.
func FuzzFoldLog(f *testing.F) {
	s1 := encodeStateRec(State{Value: 42, Stamp: 1 << 10, Version: 1, QR: 2, QW: 2})
	s2 := encodeStateRec(State{Value: -7, Stamp: 2<<10 | 3, Version: 9, QR: 4, QW: 1})
	o1 := encodeObsRec(3)
	full := append(append(append([]byte(nil), s1...), o1...), s2...)

	f.Add(full, uint32(len(full)))
	// Truncated: a torn tail mid-record.
	f.Add(full[:len(full)-5], uint32(len(s1)))
	// Bit-flipped: damage inside the sealed region.
	flipped := append([]byte(nil), full...)
	flipped[recHeaderLen+3] ^= 0x40
	f.Add(flipped, uint32(len(full)))
	// Duplicated: the same record twice (legal; the fold is a merge).
	f.Add(append(append([]byte(nil), s1...), s1...), uint32(2*len(s1)))
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{recState}, uint32(1))

	f.Fuzz(func(t *testing.T, data []byte, sealed uint32) {
		s := int(sealed)
		if s > len(data) {
			s = len(data)
		}
		var st State
		var hist []float64
		n, _, err := foldLog(data[:s], &st, &hist, true)
		if err == nil && n != s {
			t.Fatalf("strict fold consumed %d of %d without error", n, s)
		}
		var st2 State
		var hist2 []float64
		consumed, _, lerr := foldLog(data, &st2, &hist2, false)
		if lerr != nil {
			t.Fatalf("lenient fold errored: %v", lerr)
		}
		if consumed > len(data) {
			t.Fatalf("lenient fold consumed %d of %d", consumed, len(data))
		}
		// The lenient-consumed prefix must be strictly clean and land on
		// the same fold.
		var st3 State
		var hist3 []float64
		n3, _, err3 := foldLog(data[:consumed], &st3, &hist3, true)
		if err3 != nil || n3 != consumed {
			t.Fatalf("lenient prefix not strictly clean: n=%d err=%v", n3, err3)
		}
		if st3 != st2 || !histEq(hist3, hist2) {
			t.Fatalf("refold diverged: %+v vs %+v", st3, st2)
		}
	})
}

// FuzzDecodeSnap: the snapshot decoder must never panic, and anything it
// accepts must be a canonical encoding (decode∘encode is the identity).
func FuzzDecodeSnap(f *testing.F) {
	f.Add(appendSnap(nil, 1, State{Version: 1, QR: 2, QW: 2}, nil))
	f.Add(appendSnap(nil, 7, State{Value: 42, Stamp: 1 << 10, Version: 3, QR: 3, QW: 5},
		[]float64{0, 1.5, 2}))
	// Bit-flipped snapshot.
	b := appendSnap(nil, 2, State{Value: 1, Stamp: 1, Version: 1, QR: 1, QW: 1}, []float64{4})
	b[snapHdrLen] ^= 0x01
	f.Add(b)
	// Truncated snapshot.
	f.Add(b[:len(b)-3])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		gen, st, hist, err := decodeSnap(data)
		if err != nil {
			return
		}
		if !bytes.Equal(appendSnap(nil, gen, st, hist), data) {
			t.Fatalf("non-canonical snapshot accepted: %v", data)
		}
	})
}

// TestFuzzCorpusMeaning pins what each committed corpus file is named for,
// so a format change that leaves a file meaning something else (a valid
// seed now failing its checksum, a damaged one now parsing) fails here and
// not silently in the fuzzer: valid_* and duplicated_record fold or decode
// clean, every other file fails strict replay.
func TestFuzzCorpusMeaning(t *testing.T) {
	wantClean := map[string]bool{
		"FuzzFoldLog/valid_sequence":          true,
		"FuzzFoldLog/duplicated_record":       true,
		"FuzzFoldLog/bit_flipped_sealed":      false,
		"FuzzFoldLog/truncated_mid_record":    false,
		"FuzzFoldLog/oversize_length":         false,
		"FuzzFoldLog/short_header":            false,
		"FuzzFoldLog/unknown_kind":            false,
		"FuzzDecodeSnap/valid_snapshot":       true,
		"FuzzDecodeSnap/bit_flipped_snapshot": false,
		"FuzzDecodeSnap/truncated_snapshot":   false,
		"FuzzDecodeSnap/bad_magic":            false,
	}
	files, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(wantClean) {
		t.Errorf("corpus holds %d files, the table names %d", len(files), len(wantClean))
	}
	for _, path := range files {
		name := filepath.Base(filepath.Dir(path)) + "/" + filepath.Base(path)
		want, ok := wantClean[name]
		if !ok {
			t.Errorf("%s: corpus file not in the table", name)
			continue
		}
		data := corpusBytes(t, path)
		if strings.HasPrefix(name, "FuzzFoldLog/") {
			var st State
			var hist []float64
			n, _, err := foldLog(data, &st, &hist, true)
			if clean := err == nil && n == len(data); clean != want {
				t.Errorf("%s: strict replay clean=%v (n=%d of %d, err=%v), want %v",
					name, clean, n, len(data), err, want)
			}
			continue
		}
		if _, _, _, err = decodeSnap(data); (err == nil) != want {
			t.Errorf("%s: decodeSnap err=%v, want clean=%v", name, err, want)
		}
	}
}

// corpusBytes reads the []byte argument of one "go test fuzz v1" file.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if len(lines) < 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	q := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(q)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
