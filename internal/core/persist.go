package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// estimatorSnapshot is the serialized form of an Estimator. Persisting the
// on-line density state lets a site survive restarts without re-learning
// the network (§4.2's history *is* the protocol's knowledge), and lets
// operators archive the exact state a reassignment decision was based on.
type estimatorSnapshot struct {
	T     int         `json:"votes_total"`
	Decay float64     `json:"decay"`
	Sites [][]float64 `json:"sites"` // per-site histogram weights, length T+1
}

// Save serializes the estimator as JSON.
func (e *Estimator) Save(w io.Writer) error {
	snap := estimatorSnapshot{T: e.t, Decay: e.decay, Sites: make([][]float64, e.N())}
	for i := range snap.Sites {
		snap.Sites[i] = e.site(i)
	}
	return json.NewEncoder(w).Encode(snap)
}

// LoadEstimator reconstructs an estimator from Save's output.
func LoadEstimator(r io.Reader) (*Estimator, error) {
	var snap estimatorSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: load estimator: %w", err)
	}
	if snap.T <= 0 || len(snap.Sites) == 0 {
		return nil, fmt.Errorf("core: load estimator: bad header (T=%d, %d sites)", snap.T, len(snap.Sites))
	}
	if snap.Decay <= 0 || snap.Decay > 1 {
		return nil, fmt.Errorf("core: load estimator: bad decay %g", snap.Decay)
	}
	e := NewEstimator(len(snap.Sites), snap.T)
	e.decay = snap.Decay
	for i, weights := range snap.Sites {
		if len(weights) != snap.T+1 {
			return nil, fmt.Errorf("core: load estimator: site %d has %d bins, want %d",
				i, len(weights), snap.T+1)
		}
		for v, w := range weights {
			if w < 0 {
				return nil, fmt.Errorf("core: load estimator: negative weight at site %d bin %d", i, v)
			}
			if w > 0 {
				e.add(i, v, w)
			}
		}
	}
	return e, nil
}
