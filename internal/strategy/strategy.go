// Package strategy implements capacity- and latency-optimal probabilistic
// quorum strategies in the style of Whittaker et al., "Read-Write Quorum
// Systems Made Practical" (quoracle), on top of the paper's vote model.
//
// A System fixes per-site votes, read/write capacities (ops/sec each site
// can absorb) and latencies, plus a read/write quorum threshold pair.
// A Strategy is a probability distribution over read quorums and over
// write quorums: each access samples a quorum and probes exactly its
// members, so the distribution — not a single fixed quorum — decides the
// per-site load. The optimizers in this package solve linear programs over
// strategies:
//
//   - OptimizeCapacity maximizes throughput: minimize the expected (over a
//     distribution of read fractions fr) maximum per-site utilization.
//   - OptimizeLatency minimizes expected quorum latency subject to a
//     per-site load cap.
//   - OptimizeResilientCapacity maximizes throughput using only quorums
//     that survive the failure of any f of their members.
//
// Every solve carries a duality certificate (see simplex.go / certify.go):
// optimality is proved, not trusted, by primal/dual feasibility and
// complementary slackness, and — because adding a site to a quorum only
// adds load and latency — dual feasibility checked against the exhaustive
// set of *minimal* quorums extends the certificate from the LP's column
// pool to the full strategy space.
package strategy

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"quorumkit/internal/quorum"
	"quorumkit/internal/rng"
)

// Quorum is a set of site indices, stored sorted ascending.
type Quorum []int

// votes returns the quorum's vote total under the given assignment.
func (q Quorum) votes(votes []int) int {
	t := 0
	for _, x := range q {
		t += votes[x]
	}
	return t
}

// latency returns the quorum's completion latency: the access finishes when
// the slowest member responds.
func (q Quorum) latency(lat []float64) float64 {
	m := 0.0
	for _, x := range q {
		if lat[x] > m {
			m = lat[x]
		}
	}
	return m
}

// less orders quorums lexicographically (shorter prefix first); the
// canonical strategy serialization sorts by it.
func (q Quorum) less(o Quorum) bool {
	for i := 0; i < len(q) && i < len(o); i++ {
		if q[i] != o[i] {
			return q[i] < o[i]
		}
	}
	return len(q) < len(o)
}

// System is a replicated object with per-site votes, capacities and
// latencies, and a fixed read/write quorum threshold pair. ReadCap and
// WriteCap are in accesses per unit time; Latency is in arbitrary time
// units (only ratios matter to the optimizers).
type System struct {
	Votes    []int
	QR, QW   int
	ReadCap  []float64
	WriteCap []float64
	Latency  []float64
}

// MajoritySystem builds a System for a weighted vote assignment under the
// paper's majority pairing q_r = ⌊T/2⌋, q_w = T − q_r + 1 — the threshold
// pair every vote-weight search candidate is scored and certified at. It
// validates the assembled system, so a caller holding a non-nil System has
// intersection (q_r + q_w > T, 2·q_w > T) by construction.
func MajoritySystem(votes []int, readCap, writeCap, latency []float64) (System, error) {
	T := 0
	for _, v := range votes {
		T += v
	}
	if T < 2 {
		return System{}, fmt.Errorf("strategy: majority pairing needs T ≥ 2, got %d", T)
	}
	if latency == nil {
		// Latency is irrelevant to the capacity objectives; zeros validate.
		latency = make([]float64, len(votes))
	}
	sys := System{
		Votes:    append([]int(nil), votes...),
		QR:       T / 2,
		QW:       T - T/2 + 1,
		ReadCap:  readCap,
		WriteCap: writeCap,
		Latency:  latency,
	}
	if err := sys.Validate(); err != nil {
		return System{}, err
	}
	return sys, nil
}

// N returns the number of sites.
func (s System) N() int { return len(s.Votes) }

// T returns the vote total.
func (s System) T() int {
	t := 0
	for _, v := range s.Votes {
		t += v
	}
	return t
}

// Validate checks the consistency conditions (every read quorum intersects
// every write quorum; write quorums pairwise intersect — the pigeonhole
// rule of quorum.Assignment) and positivity of the capacities and
// latencies.
func (s System) Validate() error {
	n := s.N()
	if n == 0 {
		return fmt.Errorf("strategy: empty system")
	}
	if len(s.ReadCap) != n || len(s.WriteCap) != n || len(s.Latency) != n {
		return fmt.Errorf("strategy: %d sites but %d/%d/%d read-cap/write-cap/latency entries",
			n, len(s.ReadCap), len(s.WriteCap), len(s.Latency))
	}
	T := 0
	for i, v := range s.Votes {
		if v < 0 {
			return fmt.Errorf("strategy: site %d has negative votes %d", i, v)
		}
		T += v
	}
	if T == 0 {
		return fmt.Errorf("strategy: vote total is zero")
	}
	if err := (quorum.Assignment{QR: s.QR, QW: s.QW}).Validate(T); err != nil {
		return fmt.Errorf("strategy: %w", err)
	}
	for i := 0; i < n; i++ {
		bad := s.ReadCap[i] <= 0 || s.WriteCap[i] <= 0 || s.Latency[i] < 0
		bad = bad || math.IsNaN(s.ReadCap[i]) || math.IsInf(s.ReadCap[i], 0)
		bad = bad || math.IsNaN(s.WriteCap[i]) || math.IsInf(s.WriteCap[i], 0)
		bad = bad || math.IsNaN(s.Latency[i]) || math.IsInf(s.Latency[i], 0)
		if bad {
			return fmt.Errorf("strategy: site %d has bad capacities/latency (%g, %g, %g)",
				i, s.ReadCap[i], s.WriteCap[i], s.Latency[i])
		}
	}
	return nil
}

// FrDist is a discrete distribution over read fractions: the workload is a
// mixture of regimes, each a fraction Fr[j] of reads occurring with
// probability P[j]. Entries are kept sorted by Fr ascending so identical
// inputs serialize identically.
type FrDist struct {
	Fr []float64
	P  []float64
}

// NewFrDist builds a distribution from read-fraction → weight pairs
// (weights need not be normalized; zero-weight entries are dropped).
func NewFrDist(weights map[float64]float64) (FrDist, error) {
	frs := make([]float64, 0, len(weights))
	total := 0.0
	for fr, w := range weights {
		if fr < 0 || fr > 1 || math.IsNaN(fr) {
			return FrDist{}, fmt.Errorf("strategy: read fraction %g out of [0,1]", fr)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return FrDist{}, fmt.Errorf("strategy: bad weight %g for read fraction %g", w, fr)
		}
		if w > 0 {
			frs = append(frs, fr)
			total += w
		}
	}
	if total == 0 {
		return FrDist{}, fmt.Errorf("strategy: all read-fraction weights are zero")
	}
	sort.Float64s(frs)
	d := FrDist{Fr: frs, P: make([]float64, len(frs))}
	for i, fr := range frs {
		d.P[i] = weights[fr] / total
	}
	return d, nil
}

// SingleFr is the degenerate distribution concentrated on one fraction.
func SingleFr(fr float64) FrDist {
	d, err := NewFrDist(map[float64]float64{fr: 1})
	if err != nil {
		panic(err)
	}
	return d
}

// Mean returns E[fr].
func (d FrDist) Mean() float64 {
	m := 0.0
	for j, fr := range d.Fr {
		m += fr * d.P[j]
	}
	return m
}

func (d FrDist) validate() error {
	if len(d.Fr) == 0 || len(d.Fr) != len(d.P) {
		return fmt.Errorf("strategy: bad fr distribution (%d fractions, %d probs)", len(d.Fr), len(d.P))
	}
	sum := 0.0
	for j, fr := range d.Fr {
		if fr < 0 || fr > 1 || d.P[j] <= 0 {
			return fmt.Errorf("strategy: bad fr atom (%g, %g)", fr, d.P[j])
		}
		sum += d.P[j]
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("strategy: fr probabilities sum to %g", sum)
	}
	return nil
}

// Strategy is a probability distribution over read quorums and over write
// quorums of one System.
type Strategy struct {
	ReadQuorums  []Quorum
	ReadProbs    []float64
	WriteQuorums []Quorum
	WriteProbs   []float64
}

// Validate checks that both sides are distributions over valid quorums of
// sys.
func (st Strategy) Validate(sys System) error {
	check := func(side string, qs []Quorum, ps []float64, threshold int) error {
		if len(qs) == 0 || len(qs) != len(ps) {
			return fmt.Errorf("strategy: %s side has %d quorums, %d probs", side, len(qs), len(ps))
		}
		sum := 0.0
		for i, q := range qs {
			if len(q) == 0 {
				return fmt.Errorf("strategy: empty %s quorum at %d", side, i)
			}
			for k, x := range q {
				if x < 0 || x >= sys.N() {
					return fmt.Errorf("strategy: %s quorum %d has site %d out of range", side, i, x)
				}
				if k > 0 && q[k-1] >= x {
					return fmt.Errorf("strategy: %s quorum %d is not sorted-unique", side, i)
				}
			}
			if q.votes(sys.Votes) < threshold {
				return fmt.Errorf("strategy: %s quorum %v holds %d votes, need %d",
					side, q, q.votes(sys.Votes), threshold)
			}
			if ps[i] < -1e-12 {
				return fmt.Errorf("strategy: negative %s probability %g", side, ps[i])
			}
			sum += ps[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("strategy: %s probabilities sum to %g", side, sum)
		}
		return nil
	}
	if err := check("read", st.ReadQuorums, st.ReadProbs, sys.QR); err != nil {
		return err
	}
	return check("write", st.WriteQuorums, st.WriteProbs, sys.QW)
}

// SiteReadProbs returns ρ_x = P[site x is probed by a read] for every site.
func (st Strategy) SiteReadProbs(n int) []float64 {
	return siteProbs(n, st.ReadQuorums, st.ReadProbs)
}

// SiteWriteProbs returns ω_x = P[site x is probed by a write].
func (st Strategy) SiteWriteProbs(n int) []float64 {
	return siteProbs(n, st.WriteQuorums, st.WriteProbs)
}

func siteProbs(n int, qs []Quorum, ps []float64) []float64 {
	out := make([]float64, n)
	for i, q := range qs {
		for _, x := range q {
			out[x] += ps[i]
		}
	}
	return out
}

// SiteLoads returns the per-site utilization per unit throughput at read
// fraction fr: fr·ρ_x/rcap_x + (1−fr)·ω_x/wcap_x.
func (st Strategy) SiteLoads(sys System, fr float64) []float64 {
	rho := st.SiteReadProbs(sys.N())
	omega := st.SiteWriteProbs(sys.N())
	out := make([]float64, sys.N())
	for x := range out {
		out[x] = fr*rho[x]/sys.ReadCap[x] + (1-fr)*omega[x]/sys.WriteCap[x]
	}
	return out
}

// MaxLoad returns the bottleneck utilization at read fraction fr.
func (st Strategy) MaxLoad(sys System, fr float64) float64 {
	m := 0.0
	for _, l := range st.SiteLoads(sys, fr) {
		if l > m {
			m = l
		}
	}
	return m
}

// ExpectedMaxLoad returns E_fr[max_x load_x], the capacity LP's objective.
func (st Strategy) ExpectedMaxLoad(sys System, d FrDist) float64 {
	e := 0.0
	for j, fr := range d.Fr {
		e += d.P[j] * st.MaxLoad(sys, fr)
	}
	return e
}

// Capacity returns the throughput ceiling 1 / E_fr[max_x load_x]: the
// highest aggregate access rate at which no site exceeds its capacity in
// the expected worst regime.
func (st Strategy) Capacity(sys System, d FrDist) float64 {
	return 1 / st.ExpectedMaxLoad(sys, d)
}

// Canonical returns an equivalent strategy in canonical form: quorums with
// probability below eps dropped, both sides renormalized, and quorums
// sorted lexicographically. Two strategies describing the same distribution
// canonicalize to identical values, which is what makes golden fixtures
// and cross-run comparisons byte-stable.
func (st Strategy) Canonical(eps float64) Strategy {
	canonSide := func(qs []Quorum, ps []float64) ([]Quorum, []float64) {
		type entry struct {
			q Quorum
			p float64
		}
		entries := make([]entry, 0, len(qs))
		sum := 0.0
		for i, q := range qs {
			if ps[i] > eps {
				qq := append(Quorum(nil), q...)
				sort.Ints(qq)
				entries = append(entries, entry{qq, ps[i]})
				sum += ps[i]
			}
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].q.less(entries[j].q) })
		oq := make([]Quorum, len(entries))
		op := make([]float64, len(entries))
		for i, e := range entries {
			oq[i] = e.q
			op[i] = e.p / sum
		}
		return oq, op
	}
	var out Strategy
	out.ReadQuorums, out.ReadProbs = canonSide(st.ReadQuorums, st.ReadProbs)
	out.WriteQuorums, out.WriteProbs = canonSide(st.WriteQuorums, st.WriteProbs)
	return out
}

// strategyJSON is the canonical serialization: one entry per quorum with
// its probability, reads then writes, in canonical order.
type strategyJSON struct {
	Reads  []quorumProbJSON `json:"reads"`
	Writes []quorumProbJSON `json:"writes"`
}

type quorumProbJSON struct {
	Sites []int   `json:"sites"`
	P     float64 `json:"p"`
}

// MarshalJSON serializes the canonical form of the strategy.
func (st Strategy) MarshalJSON() ([]byte, error) {
	c := st.Canonical(1e-12)
	j := strategyJSON{
		Reads:  make([]quorumProbJSON, len(c.ReadQuorums)),
		Writes: make([]quorumProbJSON, len(c.WriteQuorums)),
	}
	for i, q := range c.ReadQuorums {
		j.Reads[i] = quorumProbJSON{Sites: q, P: c.ReadProbs[i]}
	}
	for i, q := range c.WriteQuorums {
		j.Writes[i] = quorumProbJSON{Sites: q, P: c.WriteProbs[i]}
	}
	return json.Marshal(j)
}

// DecodeError is the typed validation failure of the canonical strategy
// decoder: it names the side, the offending entry (-1 for side-level
// failures), and the reason the serialization was rejected. A strategy
// that fails decoding is never partially populated, so a corrupted
// installed strategy can never be sampled.
type DecodeError struct {
	Side   string // "read" or "write"
	Index  int    // entry index within the side; -1 for side-level failures
	Reason string
}

// Error implements error.
func (e *DecodeError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("strategy: decode %s side: %s", e.Side, e.Reason)
	}
	return fmt.Sprintf("strategy: decode %s entry %d: %s", e.Side, e.Index, e.Reason)
}

// decodeSide validates one side of the canonical serialization: every
// quorum non-empty, sorted-unique, with non-negative site ids; every
// probability finite, positive, and the side summing to 1 within 1e-9.
// (Site-range and vote-threshold checks need a System and stay in
// Validate.)
func decodeSide(side string, entries []quorumProbJSON) ([]Quorum, []float64, error) {
	if len(entries) == 0 {
		return nil, nil, &DecodeError{Side: side, Index: -1, Reason: "no quorums"}
	}
	qs := make([]Quorum, 0, len(entries))
	ps := make([]float64, 0, len(entries))
	sum := 0.0
	for i, e := range entries {
		if len(e.Sites) == 0 {
			return nil, nil, &DecodeError{Side: side, Index: i, Reason: "empty quorum"}
		}
		for k, x := range e.Sites {
			if x < 0 {
				return nil, nil, &DecodeError{Side: side, Index: i,
					Reason: fmt.Sprintf("negative site id %d", x)}
			}
			if k > 0 && e.Sites[k-1] >= x {
				return nil, nil, &DecodeError{Side: side, Index: i, Reason: "sites not sorted-unique"}
			}
		}
		if math.IsNaN(e.P) || math.IsInf(e.P, 0) {
			return nil, nil, &DecodeError{Side: side, Index: i,
				Reason: fmt.Sprintf("non-finite probability %g", e.P)}
		}
		if e.P <= 0 {
			return nil, nil, &DecodeError{Side: side, Index: i,
				Reason: fmt.Sprintf("non-positive probability %g", e.P)}
		}
		qs = append(qs, Quorum(e.Sites))
		ps = append(ps, e.P)
		sum += e.P
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, nil, &DecodeError{Side: side, Index: -1,
			Reason: fmt.Sprintf("probabilities sum to %g, want 1", sum)}
	}
	return qs, ps, nil
}

// UnmarshalJSON reads the canonical serialization, rejecting corrupted
// inputs — NaN/Inf/non-positive probabilities, non-normalized sides,
// unsorted or negative site lists — with a typed *DecodeError. On error
// the receiver is left unchanged.
func (st *Strategy) UnmarshalJSON(data []byte) error {
	var j strategyJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	rq, rp, err := decodeSide("read", j.Reads)
	if err != nil {
		return err
	}
	wq, wp, err := decodeSide("write", j.Writes)
	if err != nil {
		return err
	}
	st.ReadQuorums, st.ReadProbs = rq, rp
	st.WriteQuorums, st.WriteProbs = wq, wp
	return nil
}

// Sampler draws quorums from a strategy using a caller-owned RNG
// substream, so attaching one to a simulation never perturbs the main
// event stream.
type Sampler struct {
	strat Strategy
	// cumulative probabilities; inverse-CDF sampling keeps draws
	// deterministic and allocation-free.
	readCum  []float64
	writeCum []float64
}

// NewSampler prepares inverse-CDF tables for st.
func NewSampler(st Strategy) *Sampler {
	cum := func(ps []float64) []float64 {
		out := make([]float64, len(ps))
		c := 0.0
		for i, p := range ps {
			c += p
			out[i] = c
		}
		if n := len(out); n > 0 {
			out[n-1] = math.Inf(1) // absorb rounding in the last bucket
		}
		return out
	}
	return &Sampler{strat: st, readCum: cum(st.ReadProbs), writeCum: cum(st.WriteProbs)}
}

// SampleRead draws a read quorum.
func (sp *Sampler) SampleRead(src *rng.Source) Quorum {
	return sp.strat.ReadQuorums[pick(sp.readCum, src.Float64())]
}

// SampleWrite draws a write quorum.
func (sp *Sampler) SampleWrite(src *rng.Source) Quorum {
	return sp.strat.WriteQuorums[pick(sp.writeCum, src.Float64())]
}

func pick(cum []float64, u float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}
