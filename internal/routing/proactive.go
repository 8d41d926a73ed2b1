package routing

import (
	"fmt"
	"sync"

	"github.com/openspace-project/openspace/internal/topo"
)

// ProactiveRouter routes over a precomputed time-expanded topology — the
// paper's first-stage routing regime (§2.2): the topology "is both known and
// public, allowing for pre-computation of static routes between any set of
// satellites and fixed ground infrastructure". Each route is a shortest
// path on the snapshot valid at the query time; the cost function must be
// load-independent for routes computed ahead of traffic to stay valid.
type ProactiveRouter struct {
	te   *topo.TimeExpanded
	cost CostFunc

	mu sync.Mutex
	sr *Searcher // bound to the snapshot searched last
}

// NewProactiveRouter creates a router over the series with the given
// (load-independent) cost function.
func NewProactiveRouter(te *topo.TimeExpanded, cost CostFunc) *ProactiveRouter {
	return &ProactiveRouter{te: te, cost: cost}
}

// Route returns the full path from src to dst valid at time t. Routes on
// one snapshot share a searcher.
func (r *ProactiveRouter) Route(t float64, src, dst string) (Path, error) {
	snap := r.te.At(t)
	if snap == nil {
		return Path{}, fmt.Errorf("routing: proactive: no snapshot at t=%.1f", t)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sr == nil || r.sr.snap != snap {
		r.sr = NewSearcher(snap, r.cost)
	}
	return r.sr.ShortestPath(src, dst)
}
