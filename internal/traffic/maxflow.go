package traffic

import (
	"fmt"
	"math"
	"sort"

	"github.com/openspace-project/openspace/internal/topo"
)

// CutLink is one saturated link of a minimum cut.
type CutLink struct {
	LinkID
	CapacityBps float64
}

// MaxFlowResult is the outcome of one max-flow computation.
type MaxFlowResult struct {
	// ValueBps is the maximum src→dst flow.
	ValueBps float64
	// Flow carries the per-link flow of one maximum flow (only links with
	// positive flow appear).
	Flow map[LinkID]float64
	// MinCut is the bottleneck: a minimal set of saturated links whose
	// removal disconnects dst from src, sorted by (From, To). Its total
	// capacity equals ValueBps (max-flow/min-cut duality).
	MinCut []CutLink
}

// arc is one residual-graph arc. Forward arcs carry orig = initial
// capacity; residual counterparts have orig = 0.
type arc struct {
	to, rev   int32
	cap, orig float64
}

// dinicGraph is the indexed residual graph. Node indices are the
// snapshot's (sorted-ID order), and arcs are inserted in CSR order, so the
// augmenting sequence — and with it every reported flow and cut — is
// deterministic.
type dinicGraph struct {
	snap *topo.Snapshot
	adj  [][]arc
	eps  float64
	// Scratch reused across phases and solves: the steady-state kernel
	// (solve/levels/augment) must not allocate (see TestAllocGateDinic)
	// and nothing aliasing these may leave the receiver (scratchsafe).
	level []int32 //lint:scratch
	queue []int32 //lint:scratch
	iter  []int32 //lint:scratch
}

func newDinicGraph(n *Network) *dinicGraph {
	nn := n.Snap.NodeSlots()
	g := &dinicGraph{
		snap:  n.Snap,
		adj:   make([][]arc, nn),
		eps:   n.eps(),
		level: make([]int32, nn),
		queue: make([]int32, 0, nn),
		iter:  make([]int32, nn),
	}
	off, to := n.Snap.CSR()
	for u := 0; u < nn; u++ {
		for j := off[u]; j < off[u+1]; j++ {
			c := n.caps[j]
			if c <= 0 || !n.Snap.EdgeLive(j) {
				continue
			}
			v := to[j]
			g.adj[u] = append(g.adj[u], arc{to: v, rev: int32(len(g.adj[v])), cap: c, orig: c})
			g.adj[v] = append(g.adj[v], arc{to: int32(u), rev: int32(len(g.adj[u]) - 1), cap: 0, orig: 0})
		}
	}
	return g
}

// linkID names the arc u→v.
func (g *dinicGraph) linkID(u int, v int32) LinkID {
	return LinkID{g.snap.NodeID(int32(u)), g.snap.NodeID(v)}
}

// levels rebuilds the BFS level graph from src over arcs with residual
// capacity into the scratch level slice; it reports whether dst is still
// reachable. Every node enqueues at most once, so the preallocated queue
// never grows.
func (g *dinicGraph) levels(src, dst int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	g.level[src] = 0
	q := g.queue[:0]
	q = append(q, int32(src))
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, a := range g.adj[u] {
			if a.cap > g.eps && g.level[a.to] < 0 {
				g.level[a.to] = g.level[u] + 1
				q = append(q, a.to)
			}
		}
	}
	return g.level[dst] >= 0
}

// augment pushes a blocking-flow DFS step of at most limit through the
// level graph, advancing the scratch iterators.
func (g *dinicGraph) augment(u, dst int, limit float64) float64 {
	if u == dst {
		return limit
	}
	for ; g.iter[u] < int32(len(g.adj[u])); g.iter[u]++ {
		a := &g.adj[u][g.iter[u]]
		if a.cap <= g.eps || g.level[a.to] != g.level[u]+1 {
			continue
		}
		pushed := g.augment(int(a.to), dst, math.Min(limit, a.cap))
		if pushed > 0 {
			a.cap -= pushed
			g.adj[a.to][a.rev].cap += pushed
			return pushed
		}
	}
	return 0
}

// solve runs Dinic's phase loop to completion and returns the max-flow
// value, mutating arc capacities into the residual of one maximum flow.
// This is the steady-state kernel: everything it touches is preallocated
// scratch on the receiver.
//
//lint:hotpath
func (g *dinicGraph) solve(s, t int) float64 {
	var value float64
	for g.levels(s, t) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			pushed := g.augment(s, t, math.Inf(1))
			if pushed <= 0 {
				break
			}
			value += pushed
		}
	}
	return value
}

// MaxFlow computes the maximum src→dst flow of the network with Dinic's
// algorithm, returning the flow value, a per-link flow assignment and the
// minimum cut. Capacities are bps but the solver is unit-agnostic.
func MaxFlow(n *Network, src, dst string) (*MaxFlowResult, error) {
	if n.Snap.Node(src) == nil {
		return nil, fmt.Errorf("traffic: unknown source %q", src)
	}
	if n.Snap.Node(dst) == nil {
		return nil, fmt.Errorf("traffic: unknown destination %q", dst)
	}
	if src == dst {
		return nil, fmt.Errorf("traffic: source and destination are both %q", src)
	}
	g := newDinicGraph(n)
	si, _ := n.Snap.NodeIndex(src)
	ti, _ := n.Snap.NodeIndex(dst)
	s, t := int(si), int(ti)
	value := g.solve(s, t)

	res := &MaxFlowResult{ValueBps: value, Flow: make(map[LinkID]float64)}
	for u := range g.adj {
		for _, a := range g.adj[u] {
			if flow := a.orig - a.cap; a.orig > 0 && flow > g.eps {
				res.Flow[g.linkID(u, a.to)] = flow
			}
		}
	}
	// Minimum cut: the saturated forward arcs crossing from the residual
	// graph's src-reachable side to the rest.
	reach := make([]bool, len(g.adj))
	reach[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.adj[u] {
			if a.cap > g.eps && !reach[a.to] {
				reach[a.to] = true
				queue = append(queue, int(a.to))
			}
		}
	}
	for u := range g.adj {
		if !reach[u] {
			continue
		}
		for _, a := range g.adj[u] {
			if a.orig > 0 && !reach[a.to] {
				res.MinCut = append(res.MinCut, CutLink{
					LinkID:      g.linkID(u, a.to),
					CapacityBps: a.orig,
				})
			}
		}
	}
	sort.Slice(res.MinCut, func(a, b int) bool {
		if res.MinCut[a].From != res.MinCut[b].From {
			return res.MinCut[a].From < res.MinCut[b].From
		}
		return res.MinCut[a].To < res.MinCut[b].To
	})
	return res, nil
}
