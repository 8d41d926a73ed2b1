package topo

// Mask hides failed network elements from a snapshot view. Implementations
// report which nodes and links are currently down; EdgeDown must treat the
// link as undirected (a failed laser terminal or flapped ISL kills both
// directions). The fault-injection layer (internal/faults) provides the
// canonical implementation.
type Mask interface {
	// NodeDown reports whether the node is failed.
	NodeDown(id string) bool
	// EdgeDown reports whether the undirected link between from and to is
	// failed.
	EdgeDown(from, to string) bool
	// Empty reports whether nothing is down, enabling the no-op fast path.
	Empty() bool
}

// Overlay returns the degraded view of s under m: masked nodes disappear
// along with their incident edges, and masked links disappear in both
// directions. The view is a mask, not a copy: it shares s's node table,
// numbering and CSR adjacency (no Node or Edge value is copied) and adds
// one node and one edge down-set, filled in a single pass over the graph.
// Overlays stack: a view of a view carries the union of both masks.
//
// A nil or empty mask returns s itself: fault injection disabled is a
// provable no-op, which is what lets every fault-free experiment regenerate
// byte-identical output.
func (s *Snapshot) Overlay(m Mask) *Snapshot {
	if m == nil || m.Empty() {
		return s
	}
	g := s.g
	out := &Snapshot{
		TimeS:    s.TimeS,
		g:        g,
		nodeDown: make([]bool, len(g.ids)),
		edgeDown: make([]bool, len(g.edges)),
	}
	for i, id := range g.ids {
		out.nodeDown[i] = (s.nodeDown != nil && s.nodeDown[i]) || m.NodeDown(id)
		if !out.nodeDown[i] {
			out.nodeCount++
		}
	}
	for i, id := range g.ids {
		for j := g.offsets[i]; j < g.offsets[i+1]; j++ {
			v := g.to[j]
			down := out.nodeDown[i] || out.nodeDown[v] || !s.EdgeLive(j) || m.EdgeDown(id, g.ids[v])
			out.edgeDown[j] = down
			if !down {
				out.edgeCount++
			}
		}
	}
	out.live = g.ids
	if out.nodeCount < len(g.ids) {
		out.live = make([]string, 0, out.nodeCount)
		for i, id := range g.ids {
			if !out.nodeDown[i] {
				out.live = append(out.live, id)
			}
		}
	}
	return out
}

// Overlay returns the series with every snapshot degraded under the mask's
// state at call time. Snapshots the mask does not touch are shared with the
// original series; an empty mask returns the series itself.
func (te *TimeExpanded) Overlay(m Mask) *TimeExpanded {
	if m == nil || m.Empty() {
		return te
	}
	snaps := make([]*Snapshot, len(te.Snaps))
	for i, s := range te.Snaps {
		snaps[i] = s.Overlay(m)
	}
	return &TimeExpanded{StartS: te.StartS, IntervalS: te.IntervalS, Snaps: snaps}
}
