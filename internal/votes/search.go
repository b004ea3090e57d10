package votes

// Objective-generic search over integer weight vectors: memoized steepest-
// ascent hill climbing, simulated annealing with seeded restart substreams
// and a three-family neighborhood (±1 weight, one-vote transfer, rescale),
// and exhaustive enumeration for small systems. Every candidate the engines
// score is certified by the O(n log n) pigeonhole certifier before it can
// be accepted or become the incumbent best — an uncertified system is
// rejected outright, never merely penalized, so the returned result always
// carries a machine-checked intersection proof.
//
// Determinism contract: a search depends only on (n, objective, config).
// Restart r draws from rng.SubSource(Seed, r), acceptance coins are drawn
// only at deterministic decision points, and the whole trajectory — every
// proposed candidate, its score, and the accept/reject verdict — is folded
// into an FNV-1a hash so tests can assert byte-identical reruns.

import (
	"fmt"
	"math"

	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// SearchConfig tunes the weighted-vote search engines. The zero value of
// every field except MaxVotesPerSite picks a sensible default.
type SearchConfig struct {
	// MaxVotesPerSite bounds each site's weight (≥ 1, required).
	MaxVotesPerSite int
	// TotalBudget bounds the vote total; 0 means n·MaxVotesPerSite.
	TotalBudget int
	// Seed drives every random choice; restart r uses substream r.
	Seed uint64
	// Restarts is the number of annealing restarts (default 3). Restart 0
	// starts from the uniform assignment, later restarts from random
	// vectors, so the returned best is never worse than uniform.
	Restarts int
	// Steps is the number of annealing proposals per restart (default 2000).
	Steps int
}

// initTemp and finalTemp bound the annealer's geometric cooling schedule,
// in units of relative objective change.
const (
	initTemp  = 0.02
	finalTemp = 1e-4
)

func (c SearchConfig) norm(n int) (SearchConfig, error) {
	if n < 1 {
		return c, fmt.Errorf("votes: search over %d sites", n)
	}
	if c.MaxVotesPerSite < 1 {
		return c, fmt.Errorf("votes: MaxVotesPerSite=%d", c.MaxVotesPerSite)
	}
	if c.TotalBudget < 0 {
		return c, fmt.Errorf("votes: TotalBudget=%d", c.TotalBudget)
	}
	if c.TotalBudget == 0 {
		c.TotalBudget = n * c.MaxVotesPerSite
	}
	if c.TotalBudget < n {
		// Uniform start must fit: the engines anchor on it as the baseline.
		return c, fmt.Errorf("votes: TotalBudget=%d below the %d-site uniform assignment", c.TotalBudget, n)
	}
	if c.Restarts <= 0 {
		c.Restarts = 3
	}
	if c.Steps < 0 {
		return c, fmt.Errorf("votes: Steps=%d", c.Steps)
	}
	if c.Steps == 0 {
		c.Steps = 2000
	}
	return c, nil
}

// SearchResult is the outcome of a weighted-vote search.
type SearchResult struct {
	Votes      quorum.VoteAssignment
	Value      float64
	Assignment quorum.Assignment
	// Cert is the pigeonhole certificate of the returned (Votes, QR, QW);
	// Cert.Intersects() is true for every result a search returns.
	Cert Certificate
	// Evaluations counts objective evaluations (memo hits excluded).
	Evaluations int
	// Accepted counts annealing acceptances; CertifiedAccepts counts how
	// many of them carried an intersection certificate. The engines reject
	// uncertified candidates, so the two are equal by construction — the
	// bench gate asserts it.
	Accepted, CertifiedAccepts int
	// TrajectoryHash folds every proposal, score, and verdict into one
	// FNV-1a value; equal seeds must reproduce it bit-for-bit.
	TrajectoryHash uint64
}

// trajHash is an incremental FNV-1a fold over 64-bit words.
type trajHash uint64

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func (h *trajHash) mix(x uint64) {
	v := uint64(*h)
	for i := 0; i < 8; i++ {
		v ^= x & 0xff
		v *= fnvPrime64
		x >>= 8
	}
	*h = trajHash(v)
}

func (h *trajHash) mixVotes(v quorum.VoteAssignment) {
	for _, x := range v {
		h.mix(uint64(x))
	}
}

// evalCounter wraps an Objective with an evaluation counter.
type evalCounter struct {
	obj   Objective
	count int
}

func (e *evalCounter) eval(v quorum.VoteAssignment) (ObjValue, error) {
	e.count++
	return e.obj.Eval(v)
}

// certifyValue certifies a scored candidate's thresholds against its votes.
func certifyValue(v quorum.VoteAssignment, ov ObjValue) (Certificate, bool) {
	cert, err := Certify(v, ov.Assignment.QR, ov.Assignment.QW)
	if err != nil {
		return Certificate{}, false
	}
	return cert, cert.Intersects()
}

// Anneal searches weight vectors by simulated annealing with restarts,
// maximizing obj. Restart 0 starts from the uniform assignment and the best
// certified candidate ever scored is returned, so the result is always at
// least as good as uniform. Neighborhood moves: ±1 at one site, a one-vote
// transfer between two sites (vote total preserved), and rescale moves
// (double all weights / divide by their gcd) that change the granularity
// the ±1 moves act at without changing the induced quorum system.
func Anneal(n int, obj Objective, cfg SearchConfig) (SearchResult, error) {
	cfg, err := cfg.norm(n)
	if err != nil {
		return SearchResult{}, err
	}
	ec := &evalCounter{obj: obj}
	var h trajHash = fnvOffset64

	uniform := quorum.UniformVotes(n)
	uniVal, err := ec.eval(uniform)
	if err != nil {
		return SearchResult{}, err
	}
	bestVotes, bestVal := uniform, uniVal
	bestCert, ok := certifyValue(bestVotes, bestVal)
	if !ok {
		return SearchResult{}, fmt.Errorf("votes: uniform start is uncertified: %v", bestCert.Check())
	}
	h.mixVotes(uniform)
	h.mix(math.Float64bits(uniVal.Value))

	accepted, certAccepted := 0, 0
	cool := math.Pow(finalTemp/initTemp, 1/math.Max(1, float64(cfg.Steps-1)))
	for r := 0; r < cfg.Restarts; r++ {
		src := rng.SubSource(cfg.Seed, uint64(r))
		var cur quorum.VoteAssignment
		var curVal ObjValue
		if r == 0 {
			cur = append(quorum.VoteAssignment(nil), uniform...)
			curVal = uniVal // incumbent objective is cached, never re-scored
		} else {
			cur = randomVector(n, cfg, src)
			if curVal, err = ec.eval(cur); err != nil {
				return SearchResult{}, err
			}
			if cert, ok := certifyValue(cur, curVal); ok && better(curVal, bestVal) {
				bestVotes, bestVal, bestCert = append(quorum.VoteAssignment(nil), cur...), curVal, cert
			}
			h.mixVotes(cur)
			h.mix(math.Float64bits(curVal.Value))
		}

		temp := initTemp
		for step := 0; step < cfg.Steps; step++ {
			if step > 0 {
				temp *= cool
			}
			h.mix(uint64(r)<<32 | uint64(step))
			cand, changed := neighbor(cur, cfg, src)
			if !changed {
				h.mix(0x1) // infeasible proposal, trajectory still recorded
				continue
			}
			cv, err := ec.eval(cand)
			if err != nil {
				return SearchResult{}, err
			}
			h.mixVotes(cand)
			h.mix(math.Float64bits(cv.Value))
			cert, ok := certifyValue(cand, cv)
			if !ok {
				h.mix(0x2) // uncertified: rejected unconditionally
				continue
			}
			if better(cv, bestVal) {
				bestVotes = append(quorum.VoteAssignment(nil), cand...)
				bestVal, bestCert = cv, cert
			}
			accept := cv.Value >= curVal.Value
			if !accept {
				rel := (cv.Value - curVal.Value) / math.Max(math.Abs(curVal.Value), 1e-12)
				accept = src.Float64() < math.Exp(rel/temp)
			}
			if accept {
				cur, curVal = cand, cv
				accepted++
				certAccepted++
				h.mix(0x3)
			} else {
				h.mix(0x4)
			}
		}
	}
	// Deterministic memoized polish: annealing lands near an optimum, the
	// steepest-ascent pass walks the rest of the way (and is what lets the
	// oracle tests demand exact agreement with exhaustive search on small
	// systems). No randomness — the trajectory hash stays a pure function of
	// the annealing run, and the final best is folded in afterwards.
	bestVotes, bestVal, bestCert, err = climb(ec, bestVotes, bestVal, cfg)
	if err != nil {
		return SearchResult{}, err
	}
	h.mixVotes(bestVotes)
	h.mix(math.Float64bits(bestVal.Value))
	return SearchResult{
		Votes:            bestVotes,
		Value:            bestVal.Value,
		Assignment:       bestVal.Assignment,
		Cert:             bestCert,
		Evaluations:      ec.count,
		Accepted:         accepted,
		CertifiedAccepts: certAccepted,
		TrajectoryHash:   uint64(h),
	}, nil
}

// climb is the shared memoized steepest-ascent core: from (start, startVal)
// it repeatedly scores every in-bounds ±1 neighbor — each distinct vector at
// most once across the whole climb — and takes the single best strictly
// improving certified move until none remains. The 1e-12 improvement margin
// and site-then-delta scan order are those of a naive re-evaluating climb,
// so the memoization changes evaluation counts, never results.
func climb(ec *evalCounter, start quorum.VoteAssignment, startVal ObjValue, cfg SearchConfig) (quorum.VoteAssignment, ObjValue, Certificate, error) {
	n := len(start)
	memo := map[string]ObjValue{voteKey(start): startVal}
	eval := func(v quorum.VoteAssignment) (ObjValue, error) {
		k := voteKey(v)
		if ov, ok := memo[k]; ok {
			return ov, nil
		}
		ov, err := ec.eval(v)
		if err != nil {
			return ObjValue{}, err
		}
		memo[k] = ov
		return ov, nil
	}
	cur, curVal := append(quorum.VoteAssignment(nil), start...), startVal
	for {
		bestVotes, bestVal := cur, curVal
		improved := false
		for site := 0; site < n; site++ {
			for _, delta := range []int{1, -1} {
				cand := append(quorum.VoteAssignment(nil), cur...)
				cand[site] += delta
				if cand[site] < 0 || cand[site] > cfg.MaxVotesPerSite {
					continue
				}
				if t := cand.Total(); t == 0 || t > cfg.TotalBudget {
					continue
				}
				cv, err := eval(cand)
				if err != nil {
					return nil, ObjValue{}, Certificate{}, err
				}
				if _, ok := certifyValue(cand, cv); !ok {
					continue
				}
				if cv.Value > bestVal.Value+1e-12 {
					bestVotes, bestVal = cand, cv
					improved = true
				}
			}
		}
		if !improved {
			cert, ok := certifyValue(cur, curVal)
			if !ok {
				return nil, ObjValue{}, Certificate{}, fmt.Errorf("votes: climb optimum is uncertified: %v", cert.Check())
			}
			return cur, curVal, cert, nil
		}
		cur, curVal = bestVotes, bestVal
	}
}

// better orders candidates: strictly higher value wins (ties keep the
// incumbent, so earlier discoveries are stable under reruns).
func better(a, b ObjValue) bool { return a.Value > b.Value+1e-15 }

// randomVector draws a start vector with entries in [0, Max] — zero-weight
// sites included, since sparse assignments (primary copy and its relatives)
// are frequent optima on asymmetric topologies — then sheds votes at random
// sites until the budget holds. Deterministic given src.
func randomVector(n int, cfg SearchConfig, src *rng.Source) quorum.VoteAssignment {
	v := make(quorum.VoteAssignment, n)
	total := 0
	for i := range v {
		v[i] = src.Intn(cfg.MaxVotesPerSite + 1)
		total += v[i]
	}
	if total == 0 {
		v[src.Intn(n)] = 1
		total = 1
	}
	for total > cfg.TotalBudget {
		i := src.Intn(n)
		if v[i] > 0 {
			v[i]--
			total--
		}
	}
	return v
}

// neighbor proposes one move from cur. It returns (nil, false) when the
// drawn move is infeasible at cur (bounds, budget, or a no-op rescale); the
// RNG consumption is identical either way, so trajectories replay exactly.
func neighbor(cur quorum.VoteAssignment, cfg SearchConfig, src *rng.Source) (quorum.VoteAssignment, bool) {
	n := len(cur)
	total := cur.Total()
	switch move := src.Intn(16); {
	case move < 8: // ±1 at one site
		i := src.Intn(n)
		delta := 1
		if src.Uint64()&1 == 1 {
			delta = -1
		}
		nv := cur[i] + delta
		if nv < 0 || nv > cfg.MaxVotesPerSite {
			return nil, false
		}
		if nt := total + delta; nt < 1 || nt > cfg.TotalBudget {
			return nil, false
		}
		out := append(quorum.VoteAssignment(nil), cur...)
		out[i] = nv
		return out, true
	case move < 12: // transfer one vote i → j, total preserved
		i, j := src.Intn(n), src.Intn(n)
		if i == j || cur[i] == 0 || cur[j] >= cfg.MaxVotesPerSite {
			return nil, false
		}
		out := append(quorum.VoteAssignment(nil), cur...)
		out[i]--
		out[j]++
		return out, true
	case move < 14: // zero out one site: the long-range sparsifying move
		// that lets the walk cross the fitness valley between dense
		// assignments and primary-copy-like optima in one step.
		i := src.Intn(n)
		if cur[i] == 0 || total-cur[i] < 1 {
			return nil, false
		}
		out := append(quorum.VoteAssignment(nil), cur...)
		out[i] = 0
		return out, true
	case move == 14: // rescale up: double every weight (finer ±1 granularity)
		if 2*total > cfg.TotalBudget {
			return nil, false
		}
		for _, x := range cur {
			if 2*x > cfg.MaxVotesPerSite {
				return nil, false
			}
		}
		out := append(quorum.VoteAssignment(nil), cur...)
		for i := range out {
			out[i] *= 2
		}
		return out, true
	default: // rescale down: divide by the gcd (coarser granularity)
		g := 0
		for _, x := range cur {
			g = gcd(g, x)
		}
		if g <= 1 {
			return nil, false
		}
		out := append(quorum.VoteAssignment(nil), cur...)
		for i := range out {
			out[i] /= g
		}
		return out, true
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// HillClimbObjective runs memoized steepest-ascent hill climbing from start:
// each round scores every ±1 neighbor, takes the single best strictly
// improving move, and stops at a local optimum. The memo guarantees no
// vector — incumbent included — is scored twice, which is what Evaluations
// counts; the regression tests pin this against a naive re-evaluating
// climb.
func HillClimbObjective(n int, obj Objective, start quorum.VoteAssignment, cfg SearchConfig) (SearchResult, error) {
	cfg, err := cfg.norm(n)
	if err != nil {
		return SearchResult{}, err
	}
	if len(start) != n {
		return SearchResult{}, fmt.Errorf("votes: %d start weights for %d sites", len(start), n)
	}
	ec := &evalCounter{obj: obj}
	startVal, err := ec.eval(start)
	if err != nil {
		return SearchResult{}, err
	}
	best, bestVal, cert, err := climb(ec, start, startVal, cfg)
	if err != nil {
		return SearchResult{}, err
	}
	return SearchResult{
		Votes:       best,
		Value:       bestVal.Value,
		Assignment:  bestVal.Assignment,
		Cert:        cert,
		Evaluations: ec.count,
	}, nil
}

// voteKey is a compact map key for a vote vector.
func voteKey(v quorum.VoteAssignment) string {
	b := make([]byte, 0, len(v)*2)
	for _, x := range v {
		for x >= 0x80 {
			b = append(b, byte(x)|0x80)
			x >>= 7
		}
		b = append(b, byte(x))
	}
	return string(b)
}

// ExhaustiveObjective enumerates every weight vector with entries in
// [0, MaxVotesPerSite] and total in [1, TotalBudget] and returns the best
// certified one. Exponential — [7]'s approach, and the oracle for the other
// engines on tiny systems.
func ExhaustiveObjective(n int, obj Objective, cfg SearchConfig) (SearchResult, error) {
	cfg, err := cfg.norm(n)
	if err != nil {
		return SearchResult{}, err
	}
	if n > 8 {
		return SearchResult{}, fmt.Errorf("votes: ExhaustiveObjective supports at most 8 sites, got %d", n)
	}
	ec := &evalCounter{obj: obj}
	best := SearchResult{Value: math.Inf(-1)}
	found := false
	v := make(quorum.VoteAssignment, n)
	var rec func(i, total int) error
	rec = func(i, total int) error {
		if i == n {
			if total == 0 {
				return nil
			}
			ov, err := ec.eval(v)
			if err != nil {
				return err
			}
			cert, ok := certifyValue(v, ov)
			if !ok {
				return nil
			}
			if !found || ov.Value > best.Value {
				best.Votes = append(quorum.VoteAssignment(nil), v...)
				best.Value = ov.Value
				best.Assignment = ov.Assignment
				best.Cert = cert
				found = true
			}
			return nil
		}
		for x := 0; x <= cfg.MaxVotesPerSite && total+x <= cfg.TotalBudget; x++ {
			v[i] = x
			if err := rec(i+1, total+x); err != nil {
				return err
			}
		}
		v[i] = 0
		return nil
	}
	if err := rec(0, 0); err != nil {
		return SearchResult{}, err
	}
	if !found {
		return SearchResult{}, fmt.Errorf("votes: no certifiable vote assignment")
	}
	best.Evaluations = ec.count
	return best, nil
}
