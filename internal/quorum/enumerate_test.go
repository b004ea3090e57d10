package quorum

import (
	"slices"
	"sort"
	"testing"

	"quorumkit/internal/rng"
)

// resilientVotes is votes(S) minus the f largest member votes, by the
// definition: sort the member votes and drop the top f.
func resilientVotes(votes []int, set []int, f int) int {
	member := make([]int, len(set))
	for i, x := range set {
		member[i] = votes[x]
	}
	sort.Sort(sort.Reverse(sort.IntSlice(member)))
	t := 0
	for i, v := range member {
		if i >= f {
			t += v
		}
	}
	return t
}

// bruteMinimalQuorums enumerates minimal f-resilient quorums by checking
// every subset, the slow-but-obviously-correct oracle for enumerate.go.
func bruteMinimalQuorums(votes []int, q, f int) [][]int {
	n := len(votes)
	isQuorum := func(mask int) bool {
		set := make([]int, 0, n)
		for x := 0; x < n; x++ {
			if mask&(1<<x) != 0 {
				set = append(set, x)
			}
		}
		return resilientVotes(votes, set, f) >= q
	}
	var out [][]int
	for mask := 1; mask < 1<<n; mask++ {
		if !isQuorum(mask) {
			continue
		}
		minimal := true
		for x := 0; x < n && minimal; x++ {
			if mask&(1<<x) != 0 && isQuorum(mask&^(1<<x)) {
				minimal = false
			}
		}
		if !minimal {
			continue
		}
		set := make([]int, 0, n)
		for x := 0; x < n; x++ {
			if mask&(1<<x) != 0 {
				set = append(set, x)
			}
		}
		out = append(out, set)
	}
	return sortPool(out)
}

// sortPool returns the pool in lexicographic order (shorter prefix first).
func sortPool(pool [][]int) [][]int {
	out := append([][]int(nil), pool...)
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i], out[j]) < 0 })
	return out
}

func poolsEqual(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

// TestMinimalQuorumsOracle cross-checks the DFS enumerator against the
// exhaustive subset oracle on randomized vote assignments, with and without
// resilience.
func TestMinimalQuorumsOracle(t *testing.T) {
	src := rng.New(0x5EED)
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(9)
		votes := make([]int, n)
		T := 0
		for i := range votes {
			votes[i] = src.Intn(4) // zero-vote sites included on purpose
			T += votes[i]
		}
		if T == 0 {
			votes[src.Intn(n)] = 1
			T = 1
		}
		q := 1 + src.Intn(T)
		f := src.Intn(3)
		want := bruteMinimalQuorums(votes, q, f)
		got, complete := ThresholdQuorums[[]int](votes, q, f, 0)
		if !complete {
			t.Fatalf("trial %d: unlimited enumeration reported incomplete", trial)
		}
		if !poolsEqual(sortPool(got), want) {
			t.Fatalf("trial %d: votes=%v q=%d f=%d\n got %v\nwant %v", trial, votes, q, f, got, want)
		}
		if f == 0 {
			plain, _ := Threshold(votes, q).MinimalQuorums(0)
			if !poolsEqual(sortPool(plain), want) {
				t.Fatalf("trial %d: Threshold.MinimalQuorums disagrees with f=0 resilient pool", trial)
			}
		}
	}
}

// TestMinimalQuorumsTruncation: the max cap must stop enumeration and
// report incompleteness exactly when the pool exceeds it.
func TestMinimalQuorumsTruncation(t *testing.T) {
	votes := []int{1, 1, 1, 1, 1, 1, 1} // majority of 7: C(7,4) = 35 minimal quorums
	full, complete := Threshold(votes, 4).MinimalQuorums(0)
	if !complete || len(full) != 35 {
		t.Fatalf("full enumeration: got %d quorums, complete=%v, want 35, true", len(full), complete)
	}
	part, complete := Threshold(votes, 4).MinimalQuorums(10)
	if complete {
		t.Fatalf("cap 10 on a 35-quorum pool reported complete")
	}
	if len(part) > 10 {
		t.Fatalf("cap 10 returned %d quorums", len(part))
	}
	exact, complete := Threshold(votes, 4).MinimalQuorums(35)
	if !complete || len(exact) != 35 {
		t.Fatalf("cap exactly 35: got %d, complete=%v", len(exact), complete)
	}
}

// TestMinimalQuorumsProperties spot-checks structural invariants the oracle
// comparison already implies, on a weighted example small enough to read.
func TestMinimalQuorumsProperties(t *testing.T) {
	votes := []int{3, 2, 2, 1, 1} // T = 9
	pool, _ := Threshold(votes, 5).MinimalQuorums(0)
	for _, q := range pool {
		if got := resilientVotes(votes, q, 0); got < 5 {
			t.Errorf("quorum %v holds %d votes, need 5", q, got)
		}
		for drop := range q {
			sub := slices.Delete(slices.Clone(q), drop, drop+1)
			if resilientVotes(votes, sub, 0) >= 5 {
				t.Errorf("quorum %v is not minimal: dropping %d keeps a quorum", q, q[drop])
			}
		}
		if !sort.IntsAreSorted(q) {
			t.Errorf("quorum %v is not sorted", q)
		}
	}
	// f=1 resilient quorums survive losing their largest member.
	res, _ := ThresholdQuorums[[]int](votes, 5, 1, 0)
	if len(res) == 0 {
		t.Fatalf("no 1-resilient quorums for votes=%v q=5", votes)
	}
	for _, q := range res {
		if resilientVotes(votes, q, 1) < 5 {
			t.Errorf("resilient quorum %v drops below 5 votes after worst failure", q)
		}
	}
}

// TestCountThresholdQuorums: counting mode agrees with the enumerator on
// random weighted systems of up to 12 sites at f = 0..2; under a cap it
// reports incomplete exactly when the pool is larger, and its allocation
// count does not grow with the pool.
func TestCountThresholdQuorums(t *testing.T) {
	src := rng.New(0xC0047)
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(12)
		votes := make([]int, n)
		T := 0
		for i := range votes {
			votes[i] = src.Intn(4)
			T += votes[i]
		}
		if T == 0 {
			votes[src.Intn(n)] = 1
			T = 1
		}
		q := 1 + src.Intn(T)
		f := src.Intn(3)
		pool, _ := ThresholdQuorums[[]int](votes, q, f, 0)
		if c, ok := CountThresholdQuorums(votes, q, f, 0); c != len(pool) || !ok {
			t.Fatalf("trial %d: votes=%v q=%d f=%d: count %d (complete=%v), enumerated %d",
				trial, votes, q, f, c, ok, len(pool))
		}
		for _, limit := range []int{1, len(pool) - 1, len(pool), len(pool) + 1} {
			if limit <= 0 {
				continue
			}
			c, ok := CountThresholdQuorums(votes, q, f, limit)
			if ok != (len(pool) <= limit) || c != min(len(pool), limit) {
				t.Fatalf("trial %d: votes=%v q=%d f=%d cap %d: count %d complete=%v, pool %d",
					trial, votes, q, f, limit, c, ok, len(pool))
			}
		}
	}
	small, large := UniformVotes(5), UniformVotes(16) // 5 and 8,008 quorums at f = 1
	for _, votes := range [][]int{small, large} {
		if a := testing.AllocsPerRun(10, func() { CountThresholdQuorums(votes, len(votes)/2+1, 1, 0) }); a != 0 {
			t.Fatalf("%d sites: %v allocations per count, want 0", len(votes), a)
		}
	}
}

// TestThresholdQuorumsCapped: pools share one backing array, so every set
// must be capacity-capped — appending to one copies it instead of
// overwriting the next set.
func TestThresholdQuorumsCapped(t *testing.T) {
	pool, _ := ThresholdQuorums[[]int](UniformVotes(7), 4, 0, 0)
	want := sortPool(pool)
	for i := range pool {
		_ = append(pool[i], -1)
	}
	if !poolsEqual(sortPool(pool), want) {
		t.Fatal("appending to one quorum overwrote another")
	}
}
