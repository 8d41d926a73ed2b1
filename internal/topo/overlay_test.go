package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
)

// fakeMask is a test mask over explicit sets. Walk hands links over in the
// orientation they were stored; NodeDown and EdgeDown serve the
// filtered-copy oracle, which expects links stored with a < b.
type fakeMask struct {
	nodes map[string]bool
	edges map[[2]string]bool
}

func (m fakeMask) Walk(node func(string), link func(a, b string)) {
	for id := range m.nodes {
		node(id)
	}
	for e := range m.edges {
		link(e[0], e[1])
	}
}
func (m fakeMask) NodeDown(id string) bool { return m.nodes[id] }
func (m fakeMask) EdgeDown(a, b string) bool {
	if a > b {
		a, b = b, a
	}
	return m.edges[[2]string{a, b}]
}
func (m fakeMask) Empty() bool { return len(m.nodes) == 0 && len(m.edges) == 0 }

// lineSnapshot builds a→b→c→d with symmetric edges.
func lineSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	nodes := []Node{
		{ID: "a", Kind: KindUser}, {ID: "b", Kind: KindSatellite},
		{ID: "c", Kind: KindSatellite}, {ID: "d", Kind: KindGroundStation},
	}
	var edges []Edge
	for _, p := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		edges = append(edges,
			Edge{From: p[0], To: p[1], Kind: LinkISLRF, CapacityBps: 1e6},
			Edge{From: p[1], To: p[0], Kind: LinkISLRF, CapacityBps: 1e6})
	}
	s, err := NewSnapshot(5, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOverlayEmptyMaskIsIdentity(t *testing.T) {
	s := lineSnapshot(t)
	if got := s.Overlay(nil); got != s {
		t.Error("nil mask should return the snapshot itself")
	}
	if got := s.Overlay(fakeMask{}); got != s {
		t.Error("empty mask should return the snapshot itself")
	}
	te := &TimeExpanded{StartS: 0, IntervalS: 1, snaps: []*Snapshot{s}}
	if got := te.Overlay(fakeMask{}); got != te {
		t.Error("empty mask should return the series itself")
	}
}

func TestOverlayNodeRemoval(t *testing.T) {
	s := lineSnapshot(t)
	d := s.Overlay(fakeMask{nodes: map[string]bool{"c": true}})
	if d == s {
		t.Fatal("non-empty mask must produce a new view")
	}
	if d.Node("c") != nil {
		t.Error("masked node still visible")
	}
	if d.NodeCount() != 3 {
		t.Errorf("NodeCount = %d, want 3", d.NodeCount())
	}
	// c's incident edges are gone in both directions: a↔b survives only.
	if d.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d, want 2", d.EdgeCount())
	}
	if _, ok := d.Edge("b", "c"); ok {
		t.Error("edge into masked node survived")
	}
	if _, ok := d.Edge("a", "b"); !ok {
		t.Error("untouched edge lost")
	}
	// The original is untouched.
	if s.NodeCount() != 4 || s.EdgeCount() != 6 {
		t.Error("overlay mutated the original snapshot")
	}
	// Node values are shared, not copied.
	if d.Node("a") != s.Node("a") {
		t.Error("overlay copied node values instead of sharing them")
	}
	if d.TimeS != s.TimeS {
		t.Error("overlay changed the snapshot time")
	}
}

func TestOverlayEdgeRemovalIsUndirected(t *testing.T) {
	s := lineSnapshot(t)
	d := s.Overlay(fakeMask{edges: map[[2]string]bool{{"b", "c"}: true}})
	if _, ok := d.Edge("b", "c"); ok {
		t.Error("masked edge survived forward")
	}
	if _, ok := d.Edge("c", "b"); ok {
		t.Error("masked edge survived reverse")
	}
	if d.EdgeCount() != 4 {
		t.Errorf("EdgeCount = %d, want 4", d.EdgeCount())
	}
	if d.NodeCount() != 4 {
		t.Errorf("NodeCount = %d, want all 4 nodes", d.NodeCount())
	}
	// Untouched adjacency lists are shared with the original.
	if len(neighbors(d, "a")) != 1 {
		t.Errorf("a's neighbours = %d, want 1", len(neighbors(d, "a")))
	}
}

func TestOverlayStacks(t *testing.T) {
	s := lineSnapshot(t)
	d1 := s.Overlay(fakeMask{edges: map[[2]string]bool{{"a", "b"}: true}})
	d2 := d1.Overlay(fakeMask{nodes: map[string]bool{"d": true}})
	if d2.EdgeCount() != 2 || d2.NodeCount() != 3 {
		t.Errorf("stacked overlay: %d nodes / %d edges, want 3 / 2",
			d2.NodeCount(), d2.EdgeCount())
	}
	// A mask naming only what the view already hides — a down node, a
	// down link, a link into a down node — leaves the view as it is.
	again := fakeMask{nodes: map[string]bool{"d": true}, edges: map[[2]string]bool{{"b", "a"}: true, {"c", "d"}: true}}
	if got := d2.Overlay(again); got != d2 {
		t.Error("a mask hiding nothing new must return the view itself")
	}
	// The stacked view still sees d's and a-b's removal through a new mask.
	d3 := d2.Overlay(fakeMask{nodes: map[string]bool{"a": true}})
	if d3.NodeCount() != 2 || d3.EdgeCount() != 2 || d3.Node("d") != nil {
		t.Errorf("third layer: %d nodes / %d edges, want 2 / 2", d3.NodeCount(), d3.EdgeCount())
	}
	if want := []string{"b", "c"}; !reflect.DeepEqual(d3.Nodes(), want) {
		t.Errorf("third layer Nodes = %v, want %v", d3.Nodes(), want)
	}
}

// TestOverlayIgnoresUnresolvedEntries: mask entries the snapshot cannot
// resolve — unknown nodes, links to unknown nodes, links between known
// nodes with no edge — hide nothing, and alone they return s itself.
func TestOverlayIgnoresUnresolvedEntries(t *testing.T) {
	s := lineSnapshot(t)
	stray := fakeMask{
		nodes: map[string]bool{"zz": true},
		edges: map[[2]string]bool{{"a", "zz"}: true, {"x", "y"}: true, {"a", "c"}: true},
	}
	if got := s.Overlay(stray); got != s {
		t.Fatal("a mask resolving to nothing must return the snapshot itself")
	}
	stray.nodes["c"] = true
	got, want := s.Overlay(stray), s.Overlay(fakeMask{nodes: map[string]bool{"c": true}})
	if got.NodeCount() != want.NodeCount() || got.EdgeCount() != want.EdgeCount() ||
		!reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Errorf("stray entries changed the view: %d nodes / %d edges, want %d / %d",
			got.NodeCount(), got.EdgeCount(), want.NodeCount(), want.EdgeCount())
	}
}

// TestOverlayOneWayLink: a link present in one direction only is hidden
// whichever orientation the mask names it in, and nothing else goes.
func TestOverlayOneWayLink(t *testing.T) {
	nodes := []Node{{ID: "a"}, {ID: "b"}, {ID: "c"}}
	s, err := NewSnapshot(0, nodes, []Edge{{From: "a", To: "b"}, {From: "b", To: "c"}, {From: "c", To: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, link := range [][2]string{{"a", "b"}, {"b", "a"}} {
		d := s.Overlay(fakeMask{edges: map[[2]string]bool{link: true}})
		if _, ok := d.Edge("a", "b"); ok || d.EdgeCount() != 2 || d.NodeCount() != 3 {
			t.Errorf("link %v: a→b visible %v, %d edges, want hidden with 2 left", link, ok, d.EdgeCount())
		}
	}
}

// TestOverlayNodeAndIncidentLink: a link down together with one of its
// endpoints is hidden once, exactly as the node alone hides it.
func TestOverlayNodeAndIncidentLink(t *testing.T) {
	s := lineSnapshot(t)
	both := s.Overlay(fakeMask{nodes: map[string]bool{"c": true}, edges: map[[2]string]bool{{"b", "c"}: true}})
	node := s.Overlay(fakeMask{nodes: map[string]bool{"c": true}})
	if both.NodeCount() != 3 || both.EdgeCount() != 2 {
		t.Errorf("%d nodes / %d edges, want 3 / 2", both.NodeCount(), both.EdgeCount())
	}
	for _, id := range s.Nodes() {
		if !reflect.DeepEqual(neighbors(both, id), neighbors(node, id)) {
			t.Errorf("neighbours of %s differ from the node-only overlay", id)
		}
	}
}

// TestTimeExpandedOverlaySharesUntouched: a link down while it exists in
// only some snapshots degrades those and shares the others unchanged.
func TestTimeExpandedOverlaySharesUntouched(t *testing.T) {
	full := lineSnapshot(t)
	var edges []Edge
	for _, p := range [][2]string{{"a", "b"}, {"c", "d"}} { // no b-c ISL
		edges = append(edges, Edge{From: p[0], To: p[1], Kind: LinkISLRF}, Edge{From: p[1], To: p[0], Kind: LinkISLRF})
	}
	split, err := NewSnapshot(6, []Node{{ID: "a"}, {ID: "b"}, {ID: "c"}, {ID: "d"}}, edges)
	if err != nil {
		t.Fatal(err)
	}
	te := &TimeExpanded{StartS: 5, IntervalS: 1, snaps: []*Snapshot{full, split, full}}
	got := te.Overlay(fakeMask{edges: map[[2]string]bool{{"b", "c"}: true}})
	if got.Snap(1) != split {
		t.Error("snapshot without the down ISL was not shared")
	}
	for _, i := range []int{0, 2} {
		if got.Snap(i) == full || got.Snap(i).EdgeCount() != 4 {
			t.Errorf("snapshot %d: shared %v, %d edges, want a view with 4", i, got.Snap(i) == full, got.Snap(i).EdgeCount())
		}
	}
}

// filteredCopy builds the degraded snapshot the way overlays used to be
// built: copy the surviving nodes, then every edge whose endpoints both
// survive and whose link is not masked.
func filteredCopy(t *testing.T, s *Snapshot, m fakeMask) *Snapshot {
	t.Helper()
	var nodes []Node
	var edges []Edge
	for _, id := range s.Nodes() {
		if m.NodeDown(id) {
			continue
		}
		nodes = append(nodes, *s.Node(id))
		for _, e := range neighbors(s, id) {
			if !m.NodeDown(e.To) && !m.EdgeDown(e.From, e.To) {
				edges = append(edges, e)
			}
		}
	}
	c, err := NewSnapshot(s.TimeS, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOverlayMatchesFilteredCopy pins the masked view against a filtered
// copy on an Iridium snapshot with a ground segment, over random node and
// link masks, and over a stacked overlay.
func TestOverlayMatchesFilteredCopy(t *testing.T) {
	grounds := []GroundSpec{{ID: "gs", Provider: "A", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []UserSpec{{ID: "u", Provider: "B", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	s := Build(0, DefaultConfig(), iridiumSpecs(t, 2, true), grounds, users)
	ids := s.Nodes()
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		m := fakeMask{nodes: map[string]bool{}, edges: map[[2]string]bool{}}
		for i := 0; i < trial%7; i++ {
			m.nodes[ids[rng.Intn(len(ids))]] = true
		}
		for _, e := range neighbors(s, ids[rng.Intn(len(ids))]) {
			if rng.Intn(2) == 0 {
				a, b := e.From, e.To
				if a > b {
					a, b = b, a
				}
				m.edges[[2]string{a, b}] = true
			}
		}
		got := s.Overlay(m)
		if trial%3 == 2 { // stack a second, node-only mask on top
			m2 := fakeMask{nodes: map[string]bool{ids[rng.Intn(len(ids))]: true}}
			got = got.Overlay(m2)
			for id := range m2.nodes {
				m.nodes[id] = true
			}
		}
		if m.Empty() {
			continue
		}
		want := filteredCopy(t, s, m)
		label := fmt.Sprintf("trial %d", trial)
		if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
			t.Fatalf("%s: Nodes %v, want %v", label, got.Nodes(), want.Nodes())
		}
		if got.NodeCount() != want.NodeCount() || got.EdgeCount() != want.EdgeCount() {
			t.Fatalf("%s: %d nodes / %d edges, want %d / %d", label,
				got.NodeCount(), got.EdgeCount(), want.NodeCount(), want.EdgeCount())
		}
		for _, a := range ids {
			if (got.Node(a) == nil) != (want.Node(a) == nil) {
				t.Fatalf("%s: Node(%s) visibility differs", label, a)
			}
			if !reflect.DeepEqual(neighbors(got, a), neighbors(want, a)) {
				t.Fatalf("%s: neighbours of %s differ", label, a)
			}
			for _, b := range ids {
				ge, gok := got.Edge(a, b)
				we, wok := want.Edge(a, b)
				if gok != wok || ge != we {
					t.Fatalf("%s: Edge(%s, %s) = %+v %v, want %+v %v", label, a, b, ge, gok, we, wok)
				}
			}
		}
		var all []Edge
		got.Edges(func(e Edge) { all = append(all, e) })
		var wantAll []Edge
		for _, id := range want.Nodes() {
			wantAll = append(wantAll, neighbors(want, id)...)
		}
		if !reflect.DeepEqual(all, wantAll) {
			t.Fatalf("%s: Edges walk differs from the per-node walks", label)
		}
	}
}

// overlaySeries is an Iridium series with a ground segment: eleven
// snapshots a minute apart.
func overlaySeries(t *testing.T) *TimeExpanded {
	t.Helper()
	grounds := []GroundSpec{{ID: "gs", Provider: "A", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []UserSpec{{ID: "u", Provider: "B", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	te, err := BuildTimeExpanded(0, 600, 60, DefaultConfig(), iridiumSpecs(t, 2, true), grounds, users)
	if err != nil {
		t.Fatal(err)
	}
	return te
}

// randomMask hides a few nodes and a few links of te's first snapshot.
func randomMask(te *TimeExpanded, rng *rand.Rand) fakeMask {
	s := te.Snap(0)
	ids := s.Nodes()
	m := fakeMask{nodes: map[string]bool{}, edges: map[[2]string]bool{}}
	for i := 0; i < 1+rng.Intn(4); i++ {
		m.nodes[ids[rng.Intn(len(ids))]] = true
	}
	for i := 0; i < rng.Intn(4); i++ {
		for _, e := range neighbors(s, ids[rng.Intn(len(ids))]) {
			if rng.Intn(3) == 0 {
				m.edges[[2]string{e.From, e.To}] = true
			}
		}
	}
	return m
}

// assertSameView requires two views of one graph to show the same nodes
// and the same live edge slots.
func assertSameView(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	if got.TimeS != want.TimeS || got.NodeCount() != want.NodeCount() || got.EdgeCount() != want.EdgeCount() {
		t.Fatalf("%s: t=%v %d nodes / %d edges, want t=%v %d / %d", label,
			got.TimeS, got.NodeCount(), got.EdgeCount(), want.TimeS, want.NodeCount(), want.EdgeCount())
	}
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("%s: Nodes %v, want %v", label, got.Nodes(), want.Nodes())
	}
	_, to := want.CSR()
	for j := range to {
		if got.EdgeLive(int32(j)) != want.EdgeLive(int32(j)) {
			t.Fatalf("%s: slot %d live %v, want %v", label, j, got.EdgeLive(int32(j)), want.EdgeLive(int32(j)))
		}
	}
}

// TestTimeExpandedOverlayLazyMatchesEager: every snapshot of a series
// overlay, built on first read and read in any order, equals the eager
// overlay of the same snapshot, and a series overlay of a series overlay
// equals the stacked snapshot overlays.
func TestTimeExpandedOverlayLazyMatchesEager(t *testing.T) {
	te := overlaySeries(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		m, m2 := randomMask(te, rng), randomMask(te, rng)
		lazy := te.Overlay(m)
		stacked := lazy.Overlay(m2)
		if lazy.Len() != te.Len() || stacked.Len() != te.Len() || lazy.EndS() != te.EndS() {
			t.Fatalf("trial %d: lengths %d/%d or end %v, want %d and %v", trial, lazy.Len(), stacked.Len(), lazy.EndS(), te.Len(), te.EndS())
		}
		for _, i := range rng.Perm(te.Len()) {
			label := fmt.Sprintf("trial %d snapshot %d", trial, i)
			want := te.Snap(i).Overlay(m)
			got := lazy.Snap(i)
			if (got == te.Snap(i)) != (want == te.Snap(i)) {
				t.Fatalf("%s: shares the intact snapshot %v, eager %v", label, got == te.Snap(i), want == te.Snap(i))
			}
			assertSameView(t, label, got, want)
			if lazy.Snap(i) != got {
				t.Fatalf("%s: a second read built another view", label)
			}
			assertSameView(t, label+" stacked", stacked.Snap(i), want.Overlay(m2))
		}
	}
}

// TestTimeExpandedOverlayCapturesMask: the series overlay sees the mask as
// it was at the Overlay call; changing the mask afterwards reaches no
// snapshot, read or not.
func TestTimeExpandedOverlayCapturesMask(t *testing.T) {
	te := overlaySeries(t)
	ids := te.Snap(0).Nodes()
	m := fakeMask{nodes: map[string]bool{ids[3]: true}, edges: map[[2]string]bool{}}
	lazy := te.Overlay(m)
	assertSameView(t, "snapshot 0", lazy.Snap(0), te.Snap(0).Overlay(m))
	want := fakeMask{nodes: map[string]bool{ids[3]: true}}
	delete(m.nodes, ids[3])
	m.nodes[ids[5]] = true
	for _, e := range neighbors(te.Snap(4), ids[7]) {
		m.edges[[2]string{e.From, e.To}] = true
	}
	for i := 0; i < te.Len(); i++ {
		assertSameView(t, fmt.Sprintf("snapshot %d", i), lazy.Snap(i), te.Snap(i).Overlay(want))
	}
}

// TestTimeExpandedOverlayConcurrentReads: goroutines reading one series
// overlay through At, each in its own order, all see the same view per
// snapshot, equal to the eager overlay. Run under -race.
func TestTimeExpandedOverlayConcurrentReads(t *testing.T) {
	te := overlaySeries(t)
	m := randomMask(te, rand.New(rand.NewSource(3)))
	lazy := te.Overlay(m)
	const readers = 8
	seen := make([][]*Snapshot, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		order := rand.New(rand.NewSource(int64(r))).Perm(te.Len())
		wg.Add(1)
		go func(r int, order []int) {
			defer wg.Done()
			seen[r] = make([]*Snapshot, te.Len())
			for _, i := range order {
				seen[r][i] = lazy.At(te.StartS + float64(i)*te.IntervalS)
			}
		}(r, order)
	}
	wg.Wait()
	for i := 0; i < te.Len(); i++ {
		for r := 1; r < readers; r++ {
			if seen[r][i] != seen[0][i] {
				t.Fatalf("snapshot %d: readers 0 and %d got different views", i, r)
			}
		}
		assertSameView(t, fmt.Sprintf("snapshot %d", i), seen[0][i], te.Snap(i).Overlay(m))
	}
}
