package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the fixed bucket count of every histogram. Bucket i holds
// observations v with 2^(i-1) < v ≤ 2^i-ish — precisely, values whose bit
// length is i — so the dynamic range covers 1 .. 2^(HistBuckets-2) with the
// final bucket absorbing everything larger. 32 buckets span four billion,
// enough for both message counts and nanosecond latencies.
const HistBuckets = 32

// bucketOf maps an observation to its bucket: 0 for v ≤ 0, then the bit
// length of v, clamped to the final bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (the "le" label
// of the exposition format); the final bucket is unbounded (+Inf, returned
// as -1).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= HistBuckets-1 {
		return -1
	}
	return 1<<uint(i) - 1
}

// Hist is a fixed-bucket histogram with atomic buckets, safe for
// concurrent writers and a concurrent snapshotting reader. The zero value
// is ready to use.
//
// Snapshots taken mid-flight are per-field atomic, not globally consistent:
// a reader racing a writer may observe the bucket increment without the sum,
// or vice versa. That is the usual and accepted metrics trade-off — totals
// are exact once writers quiesce, which is when snapshots are compared.
type Hist struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Hist) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// snapshot copies the histogram into a HistSnapshot.
func (h *Hist) snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Hist.
type HistSnapshot struct {
	Buckets [HistBuckets]int64
	Count   int64
	Sum     int64
}

// Delta returns the per-bucket difference s − prev.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	var d HistSnapshot
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	d.Count = s.Count - prev.Count
	d.Sum = s.Sum - prev.Sum
	return d
}
