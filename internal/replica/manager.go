package replica

import (
	"fmt"

	"quorumkit/internal/core"
	"quorumkit/internal/quorum"
)

// Manager implements the dynamic quorum reassignment policy of §4.3:
// periodically each site determines f_i from its on-line estimator, runs
// the Figure-1 algorithm, and when the optimal assignment differs
// significantly from the one in effect, installs it through the QR
// protocol.
type Manager struct {
	obj   *Object
	est   *core.Estimator
	alpha float64

	// MinWrite, when positive, applies the §5.4 write-throughput
	// constraint to the optimization.
	MinWrite float64
	// Hysteresis is the minimum predicted availability improvement (in
	// absolute terms) required before attempting a reassignment; it
	// implements the paper's "differs significantly" clause and prevents
	// thrashing on estimation noise.
	Hysteresis float64

	reassignments int
	attempts      int
}

// NewManager creates a dynamic reassignment manager for the object, driven
// by the given estimator and read fraction α.
func NewManager(obj *Object, est *core.Estimator, alpha float64) *Manager {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("replica: α=%g out of [0,1]", alpha))
	}
	return &Manager{obj: obj, est: est, alpha: alpha, Hysteresis: 0.01}
}

// Reassignments returns how many reassignments have been installed.
func (m *Manager) Reassignments() int { return m.reassignments }

// Attempts returns how many reassignments were attempted (including ones
// rejected because no component held a write quorum).
func (m *Manager) Attempts() int { return m.attempts }

// SetAlpha updates the read fraction the optimizer targets (the access
// pattern may shift over time — the scenario dynamic reassignment exists
// for).
func (m *Manager) SetAlpha(alpha float64) {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("replica: α=%g out of [0,1]", alpha))
	}
	m.alpha = alpha
}

// Tick runs one reassignment round: compute the optimal assignment, compare
// it with the assignment in effect in the (unique) write-capable component,
// and install it there when the model predicts it gains at least Hysteresis
// (core.Model.Improves).
// It returns whether a reassignment was installed.
func (m *Manager) Tick() (bool, error) {
	model, err := m.est.Model(nil, nil)
	if err != nil {
		return false, err
	}
	var want core.Result
	if m.MinWrite > 0 {
		want, err = model.OptimizeConstrained(m.alpha, m.MinWrite)
		if err != nil {
			return false, err
		}
	} else {
		want = model.Optimize(m.alpha)
	}

	// Find the write-capable component (reassignment is only permitted
	// there); there is at most one.
	st := m.obj.State()
	var reps []int
	reps = st.Representatives(reps)
	site := -1
	var current quorum.Assignment
	for _, rep := range reps {
		if m.obj.WriteCapable(rep) {
			site = rep
			current, _, _ = m.obj.EffectiveAssignment(rep)
			break
		}
	}
	if site < 0 {
		return false, nil // no component may currently change assignments
	}
	if !model.Improves(m.alpha, want.Assignment, current, m.Hysteresis) {
		return false, nil
	}
	m.attempts++
	if err := m.obj.Reassign(site, want.Assignment); err != nil {
		return false, nil // lost the race with a failure; try next tick
	}
	m.reassignments++
	return true, nil
}
