package topo

import (
	"sync"
	"sync/atomic"
)

// Mask hides failed network elements from a snapshot view. Implementations
// enumerate what is currently down; a link is undirected (a failed laser
// terminal or flapped ISL kills both directions). The fault-injection layer
// (internal/faults) provides the canonical implementation.
type Mask interface {
	// Walk calls node with each failed node and link with the endpoints
	// of each failed link, in any order. Consumers only mark what they
	// are told, so the order cannot change their result, and they ignore
	// elements their snapshot does not contain.
	Walk(node func(id string), link func(a, b string))
	// Empty reports whether nothing is down, enabling the no-op fast path.
	Empty() bool
}

// Marker resolves a Mask's down-set against a snapshot, the one place a
// mask's walk is resolved. Mark sets NodeDown at the index of each down
// node the snapshot shows, and EdgeDown at both CSR slots of each down
// link it shows; unknown nodes, absent links and the missing direction of
// a one-way link are ignored. Marks only set bits, so the walk order
// cannot change the result. The walk callbacks are bound once, so a
// reused Marker marks without allocating.
type Marker struct {
	NodeDown []bool // by node index
	EdgeDown []bool // by CSR slot
	s        *Snapshot
	hit      bool
	node     func(id string)
	link     func(a, b string)
}

// NewMarker returns a Marker with its walk callbacks bound.
func NewMarker() *Marker {
	mk := &Marker{}
	mk.node, mk.link = mk.markNode, mk.markLink
	return mk
}

// Mark clears the down-sets, sizes them to s's index spaces and marks m's
// down elements in them. It reports whether it marked anything s shows.
func (mk *Marker) Mark(s *Snapshot, m Mask) bool {
	mk.NodeDown = clearedBools(mk.NodeDown, len(s.g.ids))
	mk.EdgeDown = clearedBools(mk.EdgeDown, len(s.g.edges))
	mk.s, mk.hit = s, false
	m.Walk(mk.node, mk.link)
	mk.s = nil
	return mk.hit
}

func (mk *Marker) markNode(id string) {
	if i, ok := mk.s.NodeIndex(id); ok {
		mk.NodeDown[i], mk.hit = true, true
	}
}

func (mk *Marker) markLink(a, b string) {
	u, okU := mk.s.NodeIndex(a)
	v, okV := mk.s.NodeIndex(b)
	if !okU || !okV {
		return
	}
	mk.markEdge(u, v)
	mk.markEdge(v, u)
}

func (mk *Marker) markEdge(u, v int32) {
	if j, ok := mk.s.EdgeIndex(u, v); ok && mk.s.EdgeLive(j) {
		mk.EdgeDown[j], mk.hit = true, true
	}
}

// clearedBools returns b resized to n and all false, reusing its array
// when it is large enough.
func clearedBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// Overlay returns the degraded view of s under m: masked nodes disappear
// along with their incident edges, and masked links disappear in both
// directions. The view is a mask, not a copy: it shares s's node table,
// numbering and CSR adjacency (no Node or Edge value is copied) and adds
// one node and one edge down-set, which a Marker fills before a single
// pass over the down-sets. Overlays stack: a view of a view carries the
// union of both masks.
//
// A nil or empty mask, or one that hides nothing s still shows, returns s
// itself: fault injection disabled is a provable no-op, which is what lets
// every fault-free experiment regenerate byte-identical output.
func (s *Snapshot) Overlay(m Mask) *Snapshot {
	if m == nil || m.Empty() {
		return s
	}
	return s.overlay(m, NewMarker())
}

// overlay is Overlay with a caller's marker. A view takes over the
// marker's down-sets; when m hides nothing new the marker keeps them for
// its next Mark.
func (s *Snapshot) overlay(m Mask, mk *Marker) *Snapshot {
	if !mk.Mark(s, m) {
		return s
	}
	g := s.g
	out := &Snapshot{TimeS: s.TimeS, g: g, nodeDown: mk.NodeDown, edgeDown: mk.EdgeDown}
	mk.NodeDown, mk.EdgeDown = nil, nil
	for i := range out.nodeDown {
		out.nodeDown[i] = out.nodeDown[i] || (s.nodeDown != nil && s.nodeDown[i])
		if !out.nodeDown[i] {
			out.nodeCount++
		}
	}
	for j, u := range g.from {
		down := out.edgeDown[j] || !s.EdgeLive(int32(j)) || out.nodeDown[u] || out.nodeDown[g.to[j]]
		out.edgeDown[j] = down
		if !down {
			out.edgeCount++
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
// state at call time: the mask's down-set is captured now, so later
// changes to m do not reach the returned series. Each degraded snapshot is
// built on its first Snap or At and then kept; a run that replaces the
// overlay at every fault transition builds only the snapshots it reads.
// Snapshots the mask does not touch are shared with the original series;
// an empty mask returns the series itself. The result is safe for
// concurrent readers.
func (te *TimeExpanded) Overlay(m Mask) *TimeExpanded {
	if m == nil || m.Empty() {
		return te
	}
	return &TimeExpanded{StartS: te.StartS, IntervalS: te.IntervalS, over: &overlaid{
		base:  te,
		down:  captureDown(m),
		views: make([]atomic.Pointer[Snapshot], te.Len()),
		mk:    NewMarker(),
	}}
}

// overlaid is the state of a series degraded under a captured mask: the
// series it degrades, the mask's down-set frozen at Overlay time, and the
// views built so far. Views are published through atomic pointers, so a
// view once built is read without locking; mu serialises building, which
// shares one Marker.
type overlaid struct {
	base  *TimeExpanded
	down  *downSet
	views []atomic.Pointer[Snapshot]
	mu    sync.Mutex
	mk    *Marker
}

// view returns snapshot i of the overlay, building it on first read.
func (o *overlaid) view(i int) *Snapshot {
	if s := o.views[i].Load(); s != nil {
		return s
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if s := o.views[i].Load(); s != nil {
		return s
	}
	s := o.base.Snap(i).overlay(o.down, o.mk)
	o.views[i].Store(s)
	return s
}

// downSet is a mask's down-set frozen at capture time.
type downSet struct {
	nodes []string
	links [][2]string
}

func captureDown(m Mask) *downSet {
	d := &downSet{}
	m.Walk(func(id string) { d.nodes = append(d.nodes, id) },
		func(a, b string) { d.links = append(d.links, [2]string{a, b}) })
	return d
}

// Walk implements Mask.
func (d *downSet) Walk(node func(id string), link func(a, b string)) {
	for _, id := range d.nodes {
		node(id)
	}
	for _, l := range d.links {
		link(l[0], l[1])
	}
}

// Empty implements Mask.
func (d *downSet) Empty() bool { return len(d.nodes) == 0 && len(d.links) == 0 }
