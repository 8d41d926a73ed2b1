// Package topo builds the time-varying network topology of an OpenSpace
// deployment: graph snapshots whose nodes are satellites, ground stations
// and users, and whose edges are the feasible links at an instant.
//
// The paper's central routing observation (§2.2) is that because orbits are
// public and predictable, "all firms that contribute satellites to OpenSpace
// have a full public view of the topology of the entire network, including
// how it is likely to evolve over time". A TimeExpanded series of snapshots
// is the concrete form of that view: every provider can compute the same
// one from public orbital elements, which is what makes proactive routing
// and the cost model's cross-verifiable accounting possible.
package topo

import (
	"fmt"
	"slices"
	"sort"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/phy"
)

// NodeKind distinguishes the three entity classes of a LEO network (§2):
// ground users, satellites, and ground stations.
type NodeKind int

// Node kinds.
const (
	KindSatellite NodeKind = iota
	KindGroundStation
	KindUser
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KindSatellite:
		return "satellite"
	case KindGroundStation:
		return "ground-station"
	case KindUser:
		return "user"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one vertex of a snapshot.
type Node struct {
	ID       string
	Kind     NodeKind
	Provider string   // owning firm; heterogeneity-aware routing uses this
	Pos      geo.Vec3 // ECEF at the snapshot time
	HasLaser bool     // optical ISL capability (satellites only)
}

// LinkKind distinguishes edge classes.
type LinkKind int

// Link kinds.
const (
	LinkISLRF LinkKind = iota
	LinkISLLaser
	LinkGround // satellite ↔ ground station
	LinkAccess // satellite ↔ user
)

// String implements fmt.Stringer.
func (k LinkKind) String() string {
	switch k {
	case LinkISLRF:
		return "isl-rf"
	case LinkISLLaser:
		return "isl-laser"
	case LinkGround:
		return "ground"
	case LinkAccess:
		return "access"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Edge is one feasible link at the snapshot time. Edges are stored
// directed (both directions present) so per-direction costs are possible.
type Edge struct {
	From, To    string
	Kind        LinkKind
	DistanceKm  float64
	DelayS      float64 // one-way propagation delay
	CapacityBps float64
	CrossOwner  bool // endpoints belong to different providers
}

// Snapshot is the network graph at one instant. Nodes are numbered densely
// in sorted-ID order, and adjacency is stored in compressed sparse rows
// (CSR) whose rows are sorted by destination, so an index-ordered walk
// visits nodes and edges in sorted-ID order. String IDs appear only at the
// API edges: Node, Nodes, Edge, and each Edge's From/To. An overlay shares
// the graph with its parent and adds down-sets.
type Snapshot struct {
	TimeS float64
	g     *graph
	// Down-sets of a masked view, indexed like the graph; nil on an
	// intact snapshot.
	nodeDown, edgeDown []bool
	live               []string // sorted IDs of the live nodes
	nodeCount          int      // live nodes
	edgeCount          int      // live directed edges
}

// graph is the immutable node table and CSR adjacency a snapshot and all
// of its overlays share.
type graph struct {
	ids     []string         // sorted node IDs; a node's index is its position
	index   map[string]int32 // ID → index
	nodes   []Node           // parallel to ids
	offsets []int32          // CSR row starts, len(ids)+1
	edges   []Edge           // CSR edge table
	from    []int32          // source index of each edge, parallel to edges
	to      []int32          // destination index of each edge, parallel to edges
}

// halfEdge is one directed edge before CSR assembly: endpoints as node
// indices, and the link whose attributes it carries.
type halfEdge struct{ from, to, link int32 }

// assemble builds the CSR graph over the sorted node table from directed
// edges given in any order, which it sorts in place by (from, to): each
// row comes out in destination-index order, which is destination-ID
// order. (from, to) pairs must be unique. Each edge takes its attributes
// from links[link] and its From/To from the node table.
func assemble(t float64, ids []string, index map[string]int32, nodes []Node, half []halfEdge, links []Edge) *Snapshot {
	slices.SortFunc(half, func(x, y halfEdge) int {
		if x.from != y.from {
			return int(x.from - y.from)
		}
		return int(x.to - y.to)
	})
	g := &graph{
		ids: ids, index: index, nodes: nodes,
		offsets: make([]int32, len(ids)+1),
		edges:   make([]Edge, len(half)),
		from:    make([]int32, len(half)),
		to:      make([]int32, len(half)),
	}
	for j, h := range half {
		g.edges[j] = links[h.link]
		g.edges[j].From, g.edges[j].To = ids[h.from], ids[h.to]
		g.from[j], g.to[j] = h.from, h.to
		g.offsets[h.from+1]++
	}
	for i := range ids {
		g.offsets[i+1] += g.offsets[i]
	}
	return &Snapshot{TimeS: t, g: g, live: ids, nodeCount: len(ids), edgeCount: len(half)}
}

// Node returns the node with the given ID, or nil if it is unknown or
// masked.
func (s *Snapshot) Node(id string) *Node {
	i, ok := s.NodeIndex(id)
	if !ok {
		return nil
	}
	return &s.g.nodes[i]
}

// Nodes returns the live node IDs in sorted order. The slice is shared
// with the snapshot and must not be modified.
func (s *Snapshot) Nodes() []string { return s.live }

// NodeCount returns the number of live nodes.
func (s *Snapshot) NodeCount() int { return s.nodeCount }

// EdgeCount returns the number of live directed edges.
func (s *Snapshot) EdgeCount() int { return s.edgeCount }

// Edge returns the live edge from → to if present.
func (s *Snapshot) Edge(from, to string) (Edge, bool) {
	u, okU := s.NodeIndex(from)
	v, okV := s.NodeIndex(to)
	if !okU || !okV {
		return Edge{}, false
	}
	j, ok := s.EdgeIndex(u, v)
	if !ok || !s.EdgeLive(j) {
		return Edge{}, false
	}
	return s.g.edges[j], true
}

// Neighbors calls fn with each live outgoing edge of id, in
// destination-ID order. The walk allocates nothing; an unknown or masked
// id has no edges.
func (s *Snapshot) Neighbors(id string, fn func(Edge)) {
	if i, ok := s.NodeIndex(id); ok {
		s.walk(s.g.offsets[i], s.g.offsets[i+1], fn)
	}
}

// Edges calls fn with every live directed edge, in (From, To) ID order.
func (s *Snapshot) Edges(fn func(Edge)) { s.walk(0, int32(len(s.g.edges)), fn) }

// walk calls fn with the live CSR entries lo..hi.
func (s *Snapshot) walk(lo, hi int32, fn func(Edge)) {
	for j := lo; j < hi; j++ {
		if s.EdgeLive(j) {
			fn(s.g.edges[j])
		}
	}
}

// NodeIndex returns the dense index of a live node.
func (s *Snapshot) NodeIndex(id string) (int32, bool) {
	i, ok := s.g.index[id]
	if !ok || (s.nodeDown != nil && s.nodeDown[i]) {
		return 0, false
	}
	return i, true
}

// NodeID returns the ID of the node with dense index i.
func (s *Snapshot) NodeID(i int32) string { return s.g.ids[i] }

// NodeSlots returns the size of the node index space: the node count of
// the intact snapshot, masked nodes included.
func (s *Snapshot) NodeSlots() int { return len(s.g.ids) }

// CSR returns the row offsets (len NodeSlots()+1) and the destination
// index of every edge slot, masked edges included. Both slices are shared
// and must not be modified.
func (s *Snapshot) CSR() (offsets, to []int32) { return s.g.offsets, s.g.to }

// EdgeAt returns the edge in CSR slot j. The edge is shared and must not
// be modified.
func (s *Snapshot) EdgeAt(j int32) *Edge { return &s.g.edges[j] }

// EdgeLive reports whether CSR slot j is visible in this view.
func (s *Snapshot) EdgeLive(j int32) bool { return s.edgeDown == nil || !s.edgeDown[j] }

// EdgeIndex returns the CSR slot of the edge from → to, masked or not.
func (s *Snapshot) EdgeIndex(from, to int32) (int32, bool) {
	for j := s.g.offsets[from]; j < s.g.offsets[from+1]; j++ {
		if s.g.to[j] == to {
			return j, true
		}
	}
	return 0, false
}

// EdgeFrom returns the source node index of CSR slot j.
func (s *Snapshot) EdgeFrom(j int32) int32 { return s.g.from[j] }

// NewSnapshot assembles a snapshot directly from nodes and directed edges,
// bypassing the orbital feasibility rules of Build. It is the synthetic-graph
// entry point: capacity-planning tests and benchmarks use it to construct
// graphs with exactly known capacities. Each edge is taken as given (one
// direction only; callers wanting symmetry add both directions), endpoints
// must name declared nodes, and duplicate directed edges are rejected so a
// (from, to) pair identifies at most one link.
//
//lint:allow unreached the routing, traffic, faults and fluid tests and bench_test.go build their synthetic graphs with it
func NewSnapshot(t float64, nodes []Node, edges []Edge) (*Snapshot, error) {
	byID := make(map[string]int, len(nodes))
	ids := make([]string, 0, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		if n.ID == "" {
			return nil, fmt.Errorf("topo: node %d has empty ID", i)
		}
		if _, dup := byID[n.ID]; dup {
			return nil, fmt.Errorf("topo: duplicate node %q", n.ID)
		}
		byID[n.ID] = i
		ids = append(ids, n.ID)
	}
	sort.Strings(ids)
	index := make(map[string]int32, len(ids))
	table := make([]Node, len(ids))
	for i, id := range ids {
		index[id] = int32(i)
		table[i] = nodes[byID[id]]
	}
	seen := make(map[[2]string]bool, len(edges))
	half := make([]halfEdge, 0, len(edges))
	for i, e := range edges {
		from, okF := index[e.From]
		to, okT := index[e.To]
		if !okF || !okT {
			return nil, fmt.Errorf("topo: edge %s→%s references unknown node", e.From, e.To)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("topo: self-loop on %q", e.From)
		}
		key := [2]string{e.From, e.To}
		if seen[key] {
			return nil, fmt.Errorf("topo: duplicate edge %s→%s", e.From, e.To)
		}
		seen[key] = true
		half = append(half, halfEdge{from: from, to: to, link: int32(i)})
	}
	return assemble(t, ids, index, table, half, edges), nil
}

// SatSpec describes one satellite feeding a snapshot build.
type SatSpec struct {
	ID       string
	Provider string
	Elements orbit.Elements
	HasLaser bool
	MaxISLs  int // power-budget cap on simultaneous ISLs; 0 = unlimited
}

// GroundSpec describes a ground station.
type GroundSpec struct {
	ID       string
	Provider string
	Pos      geo.LatLon
}

// UserSpec describes a ground user terminal.
type UserSpec struct {
	ID       string
	Provider string // home ISP
	Pos      geo.LatLon
}

// Config sets the link-feasibility rules for snapshot building. The zero
// value is not useful; start from DefaultConfig.
type Config struct {
	// ISLRangeKm caps RF ISL length (power-limited). Laser ISLs use
	// LaserRangeKm. Line of sight over the Earth limb is always required.
	ISLRangeKm   float64
	LaserRangeKm float64
	// MinElevationDeg is the ground terminal elevation mask for both
	// ground-station and user links.
	MinElevationDeg float64
	// Capacities assigned to built links.
	RFISLBps    float64
	LaserISLBps float64
	GroundBps   float64
	AccessBps   float64
	// Workers bounds the parallel snapshot builders BuildTimeExpanded
	// fans out; ≤0 means one per CPU, 1 forces serial builds. Snapshots
	// are pure functions of their timestamp and are collected in time
	// order, so the series is identical at any worker count.
	Workers int
	// StaticISLs switches inter-satellite wiring from the geometric
	// every-visible-pair rule to an explicit plan — e.g. the +Grid wiring
	// of orbit.WalkerConfig.GridISLs — which is how mega-constellations
	// actually fly and what keeps the link count linear in the fleet.
	// Planned pairs are still feasibility-checked per snapshot (range and
	// line of sight), so seam or polar links that stretch beyond reach
	// drop out of that snapshot; pairs naming unknown satellites are
	// ignored, and MaxISLs degree caps still apply.
	StaticISLs []orbit.ISLPair
}

// DefaultConfig returns feasibility rules derived from the phy package's
// standard terminals: S-band RF ISLs, ConLCT80-class laser ISLs, Ku ground
// links, and a 10° elevation mask.
func DefaultConfig() Config {
	rf := phy.StandardSBand()
	laser := phy.ConLCT80()
	ground := phy.DefaultGroundLink()
	return Config{
		ISLRangeKm:      rf.MaxRangeKm(0, 20000),
		LaserRangeKm:    laser.MaxRangeKm(40000),
		MinElevationDeg: 10,
		RFISLBps:        rf.Budget(2000, 0).CapacityBps,
		LaserISLBps:     laser.DataRateBps,
		GroundBps:       ground.Budget(geo.SlantRangeKm(780, 30), 30).CapacityBps,
		AccessBps:       50e6,
	}
}

// Build constructs the snapshot at time t.
//
// ISLs: with no explicit plan, every satellite pair with line of sight
// and within range gets a link — laser when both ends carry terminals and
// are within laser range, otherwise RF (the paper's "RF at a minimum,
// optionally laser" rule). When a satellite has a MaxISLs power budget,
// its nearest neighbours are kept — locally optimal for link quality, and
// deterministic. With cfg.StaticISLs set, only the planned pairs are
// considered (mega-constellation +Grid wiring). Ground and access links
// attach by elevation mask.
//
// Candidate pairs come from a spatial index over the ECEF positions
// rather than an all-pairs scan, and every candidate is re-checked
// against the exact feasibility predicates, so the snapshot is identical
// to a brute-force build — the property test in spatial_test.go pins
// this.
func Build(t float64, cfg Config, sats []SatSpec, grounds []GroundSpec, users []UserSpec) *Snapshot {
	return newBuilder(cfg, sats, grounds, users).SnapshotAt(t)
}
