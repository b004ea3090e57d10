// Package experiments regenerates every figure and table of the paper's
// evaluation (§5): the availability-versus-read-quorum curves of Figures
// 2–7 (plus the fully-connected topology the paper describes in text), the
// §5.4 write-constraint worked example, and the §5.5 optima-by-read-write-
// ratio analysis. cmd/figures prints them; bench_test.go wraps each in a
// benchmark.
package experiments

import (
	"fmt"
	"io"
	"math"

	"quorumkit/internal/core"
	"quorumkit/internal/sim"
	"quorumkit/internal/topo"
)

// Alphas are the read fractions plotted in every figure (bottom to top
// curve: 0, .25, .50, .75, 1).
var Alphas = []float64{0, 0.25, 0.50, 0.75, 1}

// FigureSpec identifies one figure of the paper.
type FigureSpec struct {
	ID     string // e.g. "Figure 2"
	Chords int    // chords added to the 101-site ring
}

// Figures lists the paper's evaluation figures. Topology 4949 is not
// plotted in the paper ("nearly identical to topology 256") but is included
// here for the same comparison.
var Figures = []FigureSpec{
	{ID: "Figure 2", Chords: 0},
	{ID: "Figure 3", Chords: 1},
	{ID: "Figure 4", Chords: 2},
	{ID: "Figure 5", Chords: 4},
	{ID: "Figure 6", Chords: 16},
	{ID: "Figure 7", Chords: 256},
	{ID: "Figure 7b (text)", Chords: 4949},
}

// FigureByChords returns the spec with the given chord count.
func FigureByChords(chords int) (FigureSpec, error) {
	for _, f := range Figures {
		if f.Chords == chords {
			return f, nil
		}
	}
	return FigureSpec{}, fmt.Errorf("experiments: no figure with %d chords", chords)
}

// Series is one availability curve: A(α, q_r) for q_r = 1..⌊T/2⌋.
type Series struct {
	Alpha float64
	Avail []float64 // index 0 ↔ q_r = 1
}

// Best returns the maximizing read quorum and value of the curve
// (ties to the smaller q_r).
func (s Series) Best() (qr int, avail float64) {
	qr, avail = 1, math.Inf(-1)
	for i, a := range s.Avail {
		if a > avail {
			qr, avail = i+1, a
		}
	}
	return qr, avail
}

// FigureResult is a fully-computed figure: the model estimated from one
// simulation of the topology, and one curve per read fraction.
type FigureResult struct {
	Spec   FigureSpec
	Name   string // paper's topology name
	Model  core.Model
	Series []Series
}

// RunFigure simulates the figure's topology once, estimates the per-site
// densities on-line, and computes every curve with the Figure-1 model —
// precisely the paper's §5 pipeline.
func RunFigure(spec FigureSpec, params sim.Params, cfg sim.CollectConfig) (FigureResult, error) {
	g := topo.Paper(spec.Chords)
	model, _, err := sim.Collect(g, nil, params, cfg)
	if err != nil {
		return FigureResult{}, err
	}
	res := FigureResult{
		Spec:  spec,
		Name:  topo.Name(spec.Chords),
		Model: model,
	}
	for _, alpha := range Alphas {
		res.Series = append(res.Series, Series{Alpha: alpha, Avail: model.Curve(alpha)})
	}
	return res, nil
}

// WriteCSV emits a figure's curves as CSV (one row per read quorum, one
// availability column per α) for external plotting.
func WriteCSV(w io.Writer, res FigureResult) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\nq_r", res.Spec.ID, res.Name); err != nil {
		return err
	}
	for _, s := range res.Series {
		if _, err := fmt.Fprintf(w, ",alpha=%.2f", s.Alpha); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	n := len(res.Series[0].Avail)
	for qr := 1; qr <= n; qr++ {
		if _, err := fmt.Fprintf(w, "%d", qr); err != nil {
			return err
		}
		for _, s := range res.Series {
			if _, err := fmt.Fprintf(w, ",%.6f", s.Avail[qr-1]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// EndpointChecks captures the §5.3 structural observations for one figure.
type EndpointChecks struct {
	// AtQR1 holds A(α, 1) per α; the paper observes these are 0.96·α
	// regardless of topology.
	AtQR1 []float64
	// AtMax holds A(α, ⌊T/2⌋) per α; all curves for one topology converge
	// there, so Spread should be small.
	AtMax []float64
	// Spread is max−min of AtMax.
	Spread float64
	// EndpointOptima counts the curves whose maximum lies at q_r = 1 or
	// q_r = ⌊T/2⌋.
	EndpointOptima int
	// MajorityOptima counts the curves maximized at q_r = ⌊T/2⌋.
	MajorityOptima int
	// Curves is the number of curves examined.
	Curves int
}

// CheckEndpoints computes the §5.3 observations for a figure result.
func CheckEndpoints(res FigureResult) EndpointChecks {
	var c EndpointChecks
	last := len(res.Series[0].Avail) - 1
	for _, s := range res.Series {
		c.AtQR1 = append(c.AtQR1, s.Avail[0])
		c.AtMax = append(c.AtMax, s.Avail[last])
		qr, _ := s.Best()
		if qr == 1 || qr == last+1 {
			c.EndpointOptima++
		}
		if qr == last+1 {
			c.MajorityOptima++
		}
		c.Curves++
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, a := range c.AtMax {
		lo, hi = math.Min(lo, a), math.Max(hi, a)
	}
	c.Spread = hi - lo
	return c
}

// WriteConstraintRow is one line of the §5.4 worked example.
type WriteConstraintRow struct {
	Alpha         float64
	Unconstrained core.Result
	MinWrite      float64
	Constrained   core.Result
	// WriteAvailAtOpt is the write availability of the constrained optimum.
	WriteAvailAtOpt float64
}

// WriteConstraint reproduces the §5.4 demonstration on a figure's model:
// the unconstrained optimum (which for α=.75 sits at q_r=1 with q_w=T and
// near-zero write throughput) versus the optimum subject to a write floor.
func WriteConstraint(res FigureResult, alpha, minWrite float64) (WriteConstraintRow, error) {
	m := res.Model
	row := WriteConstraintRow{
		Alpha:         alpha,
		Unconstrained: m.Optimize(alpha),
		MinWrite:      minWrite,
	}
	con, err := m.OptimizeConstrained(alpha, minWrite)
	if err != nil {
		return row, err
	}
	row.Constrained = con
	row.WriteAvailAtOpt = m.Availability(0, con.Assignment.QR)
	return row, nil
}

// OptimaRow classifies the optimum of one (topology, α) pair for the §5.5
// analysis.
type OptimaRow struct {
	Topology string
	Alpha    float64
	BestQR   int
	BestA    float64
	// Class is "q_r=1", "majority", or "interior".
	Class string
	// MajorityA is the availability at the majority assignment, which §5.5
	// observes is frequently the *lowest*.
	MajorityA float64
	// WorstQR is the minimizing read quorum.
	WorstQR int
}

// OptimaTable computes the §5.5 classification for a set of figure results.
func OptimaTable(results []FigureResult) []OptimaRow {
	var out []OptimaRow
	// Classification tolerance: a curve whose maximum exceeds an endpoint
	// by less than this is read as endpoint-optimal (dense topologies have
	// long flat plateaus where the argmax position is estimation noise).
	const eps = 0.002
	for _, res := range results {
		for _, s := range res.Series {
			qr, a := s.Best()
			last := len(s.Avail)
			class := "interior"
			switch {
			case a <= s.Avail[0]+eps:
				class = "q_r=1"
			case a <= s.Avail[last-1]+eps:
				class = "majority"
			}
			worst, worstA := 1, math.Inf(1)
			for i, v := range s.Avail {
				if v < worstA {
					worst, worstA = i+1, v
				}
			}
			out = append(out, OptimaRow{
				Topology:  res.Name,
				Alpha:     s.Alpha,
				BestQR:    qr,
				BestA:     a,
				Class:     class,
				MajorityA: s.Avail[last-1],
				WorstQR:   worst,
			})
		}
	}
	return out
}
