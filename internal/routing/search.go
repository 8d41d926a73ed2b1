package routing

import (
	"errors"
	"fmt"
	"math"

	"github.com/openspace-project/openspace/internal/topo"
)

var (
	// ErrNoPath is returned when the destination is unreachable under the
	// cost function's usability constraints.
	ErrNoPath = errors.New("routing: no path")
	// ErrUnknownNode is returned when an endpoint is not in the snapshot.
	ErrUnknownNode = errors.New("routing: unknown node")
)

// Searcher is the one shortest-path kernel behind ShortestPath,
// KShortestPaths, DisjointPaths and the proactive router. It is bound to
// one snapshot and cost function, whose edge weights it evaluates once;
// each search then runs on the snapshot's node indices and CSR adjacency
// with arrays held in the receiver — distances, prev edges, generation
// stamps for reached, settled and banned, and a typed binary heap — so a
// warm searcher allocates nothing per search. It is not safe for
// concurrent use.
type Searcher struct {
	snap    *topo.Snapshot
	off, to []int32
	w       []float64    // weight per CSR edge under the current mask; < 0 = unusable
	base    []float64    // unmasked weights, saved by the first Mask call
	mark    *topo.Marker // resolves Mask's down-set; made by the first Mask call

	spur, tree labels // early-stopping searches; the full tree from treeSrc
	treeSrc    int32  // -1 when tree holds nothing reusable

	heap    []entry[int32] //lint:scratch
	banNode []uint64       //lint:scratch — banned while equal to banGen
	banEdge []uint64       //lint:scratch
	banGen  uint64

	arena    []int32 //lint:scratch — edge sequences of Yen's paths
	accepted []span  //lint:scratch
	cands    []span  //lint:scratch
}

// labels is one search's result, valid for nodes reached in generation
// gen. Generations are 64-bit, so stamps never wrap.
type labels struct {
	dist    []float64 //lint:scratch
	prev    []int32   //lint:scratch — CSR edge into the node, -1 at the root
	reached []uint64  //lint:scratch
	settled []uint64  //lint:scratch
	gen     uint64
}

// entry is a heap element: a node (an index here, an ID in the
// contact-graph search) and its cost.
type entry[N any] struct {
	cost float64
	node N
}

// span is a path of edges arena[at:at+n].
type span struct {
	cost  float64
	at, n int32
}

// NewSearcher binds a searcher to the snapshot and cost function. Masked
// edges of an overlay, and edges the cost function rejects or scores
// negative, are unusable.
func NewSearcher(s *topo.Snapshot, cost CostFunc) *Searcher {
	off, to := s.CSR()
	sr := &Searcher{snap: s, off: off, to: to, w: make([]float64, len(to)), treeSrc: -1,
		banNode: make([]uint64, s.NodeSlots()), banEdge: make([]uint64, len(to)), banGen: 1}
	sr.spur.init(s.NodeSlots())
	for j := range sr.w {
		sr.w[j] = -1
		if !s.EdgeLive(int32(j)) {
			continue
		}
		if c, ok := cost(*s.EdgeAt(int32(j)), s); ok && !(c < 0) {
			sr.w[j] = c
		}
	}
	return sr
}

func (l *labels) init(n int) {
	*l = labels{dist: make([]float64, n), prev: make([]int32, n), reached: make([]uint64, n), settled: make([]uint64, n)}
}

func (l *labels) has(v int32) bool { return l.reached[v] == l.gen }

// Mask makes the searcher see the snapshot degraded under m, as if it
// searched s.Overlay(m) without building the overlay: edges touching a
// down node and down links become unusable. A topo.Marker resolves each
// down element once; a warm searcher allocates nothing here. A nil or
// empty mask restores the unmasked weights. Endpoints are not checked:
// callers treat a down endpoint as no route, as the overlay's unknown node
// would be.
func (sr *Searcher) Mask(m topo.Mask) {
	if sr.base == nil {
		sr.base, sr.mark = append([]float64(nil), sr.w...), topo.NewMarker()
	}
	copy(sr.w, sr.base)
	sr.treeSrc = -1
	if m == nil || m.Empty() || !sr.mark.Mark(sr.snap, m) {
		return
	}
	nodeDown, edgeDown := sr.mark.NodeDown, sr.mark.EdgeDown
	for j, v := range sr.to {
		if edgeDown[j] || nodeDown[sr.snap.EdgeFrom(int32(j))] || nodeDown[v] {
			sr.w[j] = -1
		}
	}
}

// search runs Dijkstra from src into l, stopping once stop is settled
// (stop < 0 grows the full tree), skipping unusable and banned edges and
// banned nodes. The heap mirrors container/heap's Push and Pop exactly,
// with strict < on cost, and CSR rows are in destination-ID order, so
// equal-cost ties resolve exactly as a string-keyed search over sorted
// adjacency lists does.
//
//lint:hotpath
func (sr *Searcher) search(l *labels, src, stop int32) {
	l.gen++ // invalidates every label in O(1)
	l.dist[src], l.prev[src], l.reached[src] = 0, -1, l.gen
	sr.heap = append(sr.heap[:0], entry[int32]{node: src})
	for len(sr.heap) > 0 {
		var cur entry[int32]
		sr.heap, cur = pop(sr.heap)
		if l.settled[cur.node] == l.gen {
			continue
		}
		l.settled[cur.node] = l.gen
		if cur.node == stop {
			break
		}
		for j := sr.off[cur.node]; j < sr.off[cur.node+1]; j++ {
			w, v := sr.w[j], sr.to[j]
			if w < 0 || sr.banEdge[j] == sr.banGen || sr.banNode[v] == sr.banGen {
				continue
			}
			if nd := cur.cost + w; l.reached[v] != l.gen || nd < l.dist[v] {
				l.dist[v], l.prev[v], l.reached[v] = nd, j, l.gen
				sr.heap = push(sr.heap, entry[int32]{cost: nd, node: v})
			}
		}
	}
}

// push is container/heap's Push: append, then sift up.
func push[N any](h []entry[N], e entry[N]) []entry[N] {
	h = append(h, e)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// pop is container/heap's Pop: swap the root with the last element, sift
// it down over the rest, and take the last element off.
func pop[N any](h []entry[N]) ([]entry[N], entry[N]) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].cost < h[j].cost {
			j++ // right child
		}
		if !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}

// endpoints resolves src and dst to node indices.
func (sr *Searcher) endpoints(src, dst string) (int32, int32, error) {
	s, ok := sr.snap.NodeIndex(src)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	d, ok := sr.snap.NodeIndex(dst)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	return s, d, nil
}

// ShortestPath runs Dijkstra from src to dst on the snapshot under the cost
// function.
func ShortestPath(s *topo.Snapshot, src, dst string, cost CostFunc) (Path, error) {
	return NewSearcher(s, cost).ShortestPath(src, dst)
}

// ShortestPath is ShortestPath on the searcher's snapshot, cost and mask.
func (sr *Searcher) ShortestPath(src, dst string) (Path, error) {
	s, d, err := sr.endpoints(src, dst)
	if err != nil {
		return Path{}, err
	}
	sr.banGen++ // lifts every ban
	sr.search(&sr.spur, s, d)
	if !sr.spur.has(d) {
		return Path{}, fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
	}
	sr.arena = sr.arena[:0]
	sr.trace(&sr.spur, d)
	return sr.path(src, sr.arena), nil
}

// grow fills sr.tree with the full unbanned tree from src, unless it
// already holds it.
func (sr *Searcher) grow(src int32) {
	if sr.treeSrc != src {
		if sr.tree.dist == nil {
			sr.tree.init(len(sr.banNode))
		}
		sr.banGen++ // lifts every ban
		sr.search(&sr.tree, src, -1)
		sr.treeSrc = src
	}
}

// trace appends the edges of l's path to v, root first, to the arena.
func (sr *Searcher) trace(l *labels, v int32) {
	at := len(sr.arena)
	for j := l.prev[v]; j >= 0; j = l.prev[sr.snap.EdgeFrom(j)] {
		sr.arena = append(sr.arena, j)
	}
	for a, b := at, len(sr.arena)-1; a < b; a, b = a+1, b-1 {
		sr.arena[a], sr.arena[b] = sr.arena[b], sr.arena[a]
	}
}

// path renders the edges from src as a Path. Its cost is the weights
// summed from src, which is bit-identical to the search's own distance.
func (sr *Searcher) path(src string, edges []int32) Path {
	p := Path{Nodes: make([]string, len(edges)+1), Hops: len(edges), MinCapacityBps: math.Inf(1)}
	p.Nodes[0] = src
	for i, j := range edges {
		e := sr.snap.EdgeAt(j)
		p.Nodes[i+1] = e.To
		p.Cost += sr.w[j]
		p.DelayS += e.DelayS
		p.DistanceKm += e.DistanceKm
		if e.CapacityBps < p.MinCapacityBps {
			p.MinCapacityBps = e.CapacityBps
		}
		if e.CrossOwner {
			p.CrossOwnerHops++
		}
	}
	if len(edges) == 0 {
		p.MinCapacityBps = 0
	}
	return p
}
