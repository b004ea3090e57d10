// Package db assembles the replica substrate into a small distributed
// database: a set of named replicated objects sharing one physical network,
// each with its own quorum assignment, access statistics, and (optionally)
// its own dynamic reassignment manager. This is the deployment surface the
// paper's title implies — the quorum optimization runs per data item, since
// different items see different read-write ratios.
package db

import (
	"fmt"
	"sort"

	"quorumkit/internal/core"
	"quorumkit/internal/graph"
	"quorumkit/internal/quorum"
	"quorumkit/internal/replica"
)

// ObjectStats tallies per-object access outcomes.
type ObjectStats struct {
	ReadsGranted  int64
	ReadsDenied   int64
	WritesGranted int64
	WritesDenied  int64
}

// ReadFraction returns the observed α of this object (0 when no accesses).
func (s ObjectStats) ReadFraction() float64 {
	total := s.ReadsGranted + s.ReadsDenied + s.WritesGranted + s.WritesDenied
	if total == 0 {
		return 0
	}
	return float64(s.ReadsGranted+s.ReadsDenied) / float64(total)
}

// Availability returns the granted fraction over all accesses.
func (s ObjectStats) Availability() float64 {
	total := s.ReadsGranted + s.ReadsDenied + s.WritesGranted + s.WritesDenied
	if total == 0 {
		return 0
	}
	return float64(s.ReadsGranted+s.WritesGranted) / float64(total)
}

type entry struct {
	obj   *replica.Object
	est   *core.Estimator
	mgr   *replica.Manager
	stats ObjectStats
}

// Database is a collection of replicated objects over a shared network
// state. It is not safe for concurrent use; the simulation model is
// single-threaded (events are instantaneous).
type Database struct {
	st      *graph.State
	objects map[string]*entry
}

// New creates an empty database over the network state.
func New(st *graph.State) *Database {
	return &Database{st: st, objects: map[string]*entry{}}
}

// Create adds a replicated object under the given name with an initial
// quorum assignment. The per-object on-line estimator is created
// immediately; call EnableDynamic to attach a reassignment manager.
func (d *Database) Create(name string, initial quorum.Assignment) error {
	if _, dup := d.objects[name]; dup {
		return fmt.Errorf("db: object %q already exists", name)
	}
	obj, err := replica.NewObject(d.st, initial)
	if err != nil {
		return fmt.Errorf("db: create %q: %w", name, err)
	}
	d.objects[name] = &entry{
		obj: obj,
		est: core.NewEstimator(d.st.Graph().N(), d.st.TotalVotes()),
	}
	return nil
}

// Names returns the object names in sorted order.
func (d *Database) Names() []string {
	out := make([]string, 0, len(d.objects))
	for name := range d.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats returns the access statistics of an object.
func (d *Database) Stats(name string) (ObjectStats, error) {
	e, ok := d.objects[name]
	if !ok {
		return ObjectStats{}, fmt.Errorf("db: no object %q", name)
	}
	return e.stats, nil
}

// EnableDynamic attaches a §4.3 reassignment manager to the object, driven
// by its own estimator, targeting read fraction alpha with an optional
// write floor.
func (d *Database) EnableDynamic(name string, alpha, minWrite float64) error {
	e, ok := d.objects[name]
	if !ok {
		return fmt.Errorf("db: no object %q", name)
	}
	e.mgr = replica.NewManager(e.obj, e.est, alpha)
	e.mgr.MinWrite = minWrite
	return nil
}

// Read submits a read of an object at a site.
func (d *Database) Read(name string, site int) (value int64, granted bool, err error) {
	e, ok := d.objects[name]
	if !ok {
		return 0, false, fmt.Errorf("db: no object %q", name)
	}
	e.est.Observe(site, d.st.VotesAt(site))
	v, _, ok2 := e.obj.Read(site)
	if ok2 {
		e.stats.ReadsGranted++
	} else {
		e.stats.ReadsDenied++
	}
	return v, ok2, nil
}

// Write submits a write of an object at a site.
func (d *Database) Write(name string, site int, value int64) (granted bool, err error) {
	e, ok := d.objects[name]
	if !ok {
		return false, fmt.Errorf("db: no object %q", name)
	}
	e.est.Observe(site, d.st.VotesAt(site))
	ok2 := e.obj.Write(site, value)
	if ok2 {
		e.stats.WritesGranted++
	} else {
		e.stats.WritesDenied++
	}
	return ok2, nil
}

// Tick runs one reassignment round on every object with dynamic management
// enabled and returns how many objects changed assignment.
func (d *Database) Tick() (int, error) {
	changed := 0
	for _, name := range d.Names() {
		e := d.objects[name]
		if e.mgr == nil {
			continue
		}
		// Track the observed read fraction so the optimizer chases the
		// workload each object actually sees.
		if total := e.stats.ReadsGranted + e.stats.ReadsDenied +
			e.stats.WritesGranted + e.stats.WritesDenied; total > 100 {
			e.mgr.SetAlpha(e.stats.ReadFraction())
		}
		did, err := e.mgr.Tick()
		if err != nil {
			return changed, fmt.Errorf("db: tick %q: %w", name, err)
		}
		if did {
			changed++
		}
	}
	return changed, nil
}

// Assignments returns each object's currently-effective assignment as seen
// from the given site (objects unreachable from a down site are skipped).
func (d *Database) Assignments(site int) map[string]quorum.Assignment {
	out := map[string]quorum.Assignment{}
	for name, e := range d.objects {
		if a, _, ok := e.obj.EffectiveAssignment(site); ok {
			out[name] = a
		}
	}
	return out
}
