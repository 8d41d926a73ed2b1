package routing

import (
	"fmt"
	"slices"

	"github.com/openspace-project/openspace/internal/topo"
)

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// increasing cost order, using Yen's algorithm. Path diversity matters in
// OpenSpace because the preferred path may cross a provider whose tariff or
// load makes a slightly longer same-provider path preferable — the economics
// layer compares alternatives produced here.
func KShortestPaths(s *topo.Snapshot, src, dst string, cost CostFunc, k int) ([]Path, error) {
	sr := NewSearcher(s, cost)
	var paths []Path
	if err := sr.KShortestEdges(src, dst, k, func(edges []int32) {
		paths = append(paths, sr.path(src, edges))
	}); err != nil {
		return nil, err
	}
	return paths, nil
}

// KShortestEdges runs KShortestPaths on the searcher and calls fn with each
// path's CSR edges in rank order; the slice is only valid during the call.
// Calls with the same src take their first path from one shortest-path
// tree.
func (sr *Searcher) KShortestEdges(src, dst string, k int, fn func(edges []int32)) error {
	if k <= 0 {
		return nil
	}
	s, d, err := sr.endpoints(src, dst)
	if err != nil {
		return err
	}
	sr.grow(s)
	if !sr.tree.has(d) {
		return fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
	}
	sr.yen(s, d, k)
	for _, p := range sr.accepted {
		fn(sr.arena[p.at : p.at+p.n])
	}
	return nil
}

// yen fills sr.accepted with up to k loopless s→d paths in Yen order,
// starting from the path in sr.tree, which must hold the tree from s and
// reach d. Paths are edge sequences from s, so equal
// node prefixes are equal edge prefixes; the spur bans (the next hop of
// every accepted path sharing the root, and the root's nodes before the
// spur) are ban stamps.
func (sr *Searcher) yen(s, d int32, k int) {
	sr.arena, sr.accepted, sr.cands = sr.arena[:0], sr.accepted[:0], sr.cands[:0]
	sr.trace(&sr.tree, d)
	sr.accepted = append(sr.accepted, span{cost: sr.tree.dist[d], n: int32(len(sr.arena))})
	for len(sr.accepted) < k {
		last := sr.accepted[len(sr.accepted)-1]
		for i := int32(0); i < last.n; i++ {
			root := sr.arena[last.at : last.at+i]
			sr.banGen++
			for _, p := range sr.accepted {
				if p.n > i && slices.Equal(sr.arena[p.at:p.at+i], root) {
					sr.banEdge[sr.arena[p.at+i]] = sr.banGen
				}
			}
			spur := s
			for _, j := range root {
				sr.banNode[spur] = sr.banGen
				spur = sr.to[j]
			}
			sr.search(&sr.spur, spur, d)
			if sr.spur.has(d) {
				sr.candidate(last.at, i, d)
			}
		}
		if len(sr.cands) == 0 {
			break
		}
		best := 0
		for c := range sr.cands {
			if sr.less(sr.cands[c], sr.cands[best]) {
				best = c
			}
		}
		sr.accepted = append(sr.accepted, sr.cands[best])
		sr.cands[best] = sr.cands[len(sr.cands)-1]
		sr.cands = sr.cands[:len(sr.cands)-1]
	}
}

// candidate joins the first i edges of the path at arena[from:] with the
// spur search's path to d, unless that path is already known. The cost is
// re-summed edge by edge from s, never root plus spur cost, so it is
// bit-identical to the same path's cost found directly.
//
//lint:hotpath
func (sr *Searcher) candidate(from, i, d int32) {
	at := int32(len(sr.arena))
	sr.arena = append(sr.arena, sr.arena[from:from+i]...)
	sr.trace(&sr.spur, d)
	c := span{at: at, n: int32(len(sr.arena)) - at}
	for _, j := range sr.arena[at:] {
		c.cost += sr.w[j]
	}
	for _, p := range sr.accepted {
		if slices.Equal(sr.arena[p.at:p.at+p.n], sr.arena[at:]) {
			sr.arena = sr.arena[:at]
			return
		}
	}
	for _, p := range sr.cands {
		if slices.Equal(sr.arena[p.at:p.at+p.n], sr.arena[at:]) {
			sr.arena = sr.arena[:at]
			return
		}
	}
	sr.cands = append(sr.cands, c)
}

// less orders candidates by cost, ties broken by node sequence: node
// indices follow ID order and every path starts at s, so comparing hop
// destinations orders paths as comparing their IDs does.
func (sr *Searcher) less(a, b span) bool {
	if a.cost != b.cost { //lint:allow floateq exact sort tie-break keeps k-path order deterministic
		return a.cost < b.cost
	}
	for i := int32(0); i < a.n && i < b.n; i++ {
		if x, y := sr.to[sr.arena[a.at+i]], sr.to[sr.arena[b.at+i]]; x != y {
			return x < y
		}
	}
	return a.n < b.n
}
