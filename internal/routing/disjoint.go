package routing

import (
	"fmt"

	"github.com/openspace-project/openspace/internal/topo"
)

// DisjointPaths returns up to k edge-disjoint paths from src to dst in
// increasing cost order, found by iterated Dijkstra with used edges
// removed. Edge-disjoint alternatives are what the paper's §4 redundancy
// argument buys: "additional satellites ensure … load balancing" — traffic
// split across disjoint routes shares no bottleneck, and a failed ISL
// takes down at most one of them.
//
// Iterated removal is not guaranteed to find the maximum disjoint set (that
// needs Suurballe's algorithm); on dense LEO meshes it finds near-optimal
// sets at a fraction of the complexity, and every returned path is valid
// and mutually edge-disjoint — which is what the splitter needs.
func DisjointPaths(s *topo.Snapshot, src, dst string, cost CostFunc, k int) ([]Path, error) {
	return NewSearcher(s, cost).DisjointPaths(src, dst, k)
}

// DisjointPaths is DisjointPaths on the searcher's snapshot, cost and mask.
func (sr *Searcher) DisjointPaths(src, dst string, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	si, d, err := sr.endpoints(src, dst)
	if err != nil {
		return nil, err
	}
	sr.banGen++
	var paths []Path
	for len(paths) < k {
		sr.search(&sr.spur, si, d)
		if !sr.spur.has(d) {
			if len(paths) == 0 {
				return nil, fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
			}
			break // no more disjoint capacity
		}
		sr.arena = sr.arena[:0]
		sr.trace(&sr.spur, d)
		paths = append(paths, sr.path(src, sr.arena))
		if si == d {
			break // src == dst: the zero-hop path uses no edges; one copy suffices
		}
		for _, j := range sr.arena { // ban used links in both directions
			sr.banEdge[j] = sr.banGen
			if r, ok := sr.snap.EdgeIndex(sr.to[j], sr.snap.EdgeFrom(j)); ok {
				sr.banEdge[r] = sr.banGen
			}
		}
	}
	return paths, nil
}
