package routing

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

// This file keeps the original string-keyed Dijkstra, Yen and disjoint-path
// implementations — maps keyed by node ID, container/heap, [2]string ban
// maps — as the oracle the index kernel must reproduce exactly, ties
// included.

type oracleItem struct {
	id   string
	cost float64
}

type oraclePQ []oracleItem

func (q oraclePQ) Len() int            { return len(q) }
func (q oraclePQ) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q oraclePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oraclePQ) Push(x interface{}) { *q = append(*q, x.(oracleItem)) }
func (q *oraclePQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func oracleDijkstra(s *topo.Snapshot, src string, cost CostFunc, stopAt string) (map[string]float64, map[string]string) {
	dist := map[string]float64{src: 0}
	prev := map[string]string{}
	done := map[string]bool{}
	q := &oraclePQ{{id: src, cost: 0}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(oracleItem)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		if stopAt != "" && cur.id == stopAt {
			break
		}
		for _, e := range neighbors(s, cur.id) {
			w, usable := cost(e, s)
			if !usable || w < 0 {
				continue
			}
			nd := cur.cost + w
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				prev[e.To] = cur.id
				heap.Push(q, oracleItem{id: e.To, cost: nd})
			}
		}
	}
	return dist, prev
}

// oracleStats mirrors statsFromEdges over copied edge values.
func oracleStats(nodes []string, cost float64, edges []topo.Edge) Path {
	p := Path{Nodes: nodes, Cost: cost, Hops: len(edges), MinCapacityBps: math.Inf(1)}
	for _, e := range edges {
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

func oracleShortest(s *topo.Snapshot, src, dst string, cost CostFunc) (Path, error) {
	if s.Node(src) == nil {
		return Path{}, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	if s.Node(dst) == nil {
		return Path{}, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	dist, prev := oracleDijkstra(s, src, cost, dst)
	if _, ok := dist[dst]; !ok {
		return Path{}, fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
	}
	var rev []string
	for at := dst; ; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
	}
	nodes := make([]string, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	edges := make([]topo.Edge, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		e, _ := s.Edge(nodes[i], nodes[i+1])
		edges = append(edges, e)
	}
	return oracleStats(nodes, dist[dst], edges), nil
}

func oracleKShortest(s *topo.Snapshot, src, dst string, cost CostFunc, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	first, err := oracleShortest(s, src, dst, cost)
	if err != nil {
		return nil, err
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		prevPath := paths[len(paths)-1].Nodes
		for i := 0; i < len(prevPath)-1; i++ {
			spur := prevPath[i]
			rootNodes := prevPath[:i+1]
			banEdge := map[[2]string]bool{}
			for _, p := range paths {
				if len(p.Nodes) > i && oracleEqualPrefix(p.Nodes, rootNodes) {
					banEdge[[2]string{p.Nodes[i], p.Nodes[i+1]}] = true
				}
			}
			banNode := map[string]bool{}
			for _, n := range rootNodes[:len(rootNodes)-1] {
				banNode[n] = true
			}
			restricted := func(e topo.Edge, snap *topo.Snapshot) (float64, bool) {
				if banNode[e.To] || banNode[e.From] || banEdge[[2]string{e.From, e.To}] {
					return 0, false
				}
				return cost(e, snap)
			}
			spurPath, err := oracleShortest(s, spur, dst, restricted)
			if err != nil {
				continue
			}
			total := oracleJoin(s, rootNodes, spurPath.Nodes, cost)
			if total != nil && !oracleContains(paths, total.Nodes) && !oracleContains(candidates, total.Nodes) {
				candidates = append(candidates, *total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].Cost != candidates[b].Cost {
				return candidates[a].Cost < candidates[b].Cost
			}
			return oracleLessNodes(candidates[a].Nodes, candidates[b].Nodes)
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

func oracleEqualPrefix(nodes, prefix []string) bool {
	return len(nodes) >= len(prefix) && reflect.DeepEqual(nodes[:len(prefix)], prefix)
}

func oracleContains(paths []Path, nodes []string) bool {
	for _, p := range paths {
		if reflect.DeepEqual(p.Nodes, nodes) {
			return true
		}
	}
	return false
}

func oracleLessNodes(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func oracleJoin(s *topo.Snapshot, root, spurPath []string, cost CostFunc) *Path {
	nodes := append(append([]string(nil), root...), spurPath[1:]...)
	seen := map[string]bool{}
	for _, n := range nodes {
		if seen[n] {
			return nil
		}
		seen[n] = true
	}
	var edges []topo.Edge
	var total float64
	for i := 0; i+1 < len(nodes); i++ {
		e, ok := s.Edge(nodes[i], nodes[i+1])
		if !ok {
			return nil
		}
		w, usable := cost(e, s)
		if !usable {
			return nil
		}
		total += w
		edges = append(edges, e)
	}
	p := oracleStats(nodes, total, edges)
	return &p
}

func oracleDisjoint(s *topo.Snapshot, src, dst string, cost CostFunc, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	banned := map[[2]string]bool{}
	restricted := func(e topo.Edge, snap *topo.Snapshot) (float64, bool) {
		if banned[[2]string{e.From, e.To}] || banned[[2]string{e.To, e.From}] {
			return 0, false
		}
		return cost(e, snap)
	}
	var paths []Path
	for len(paths) < k {
		p, err := oracleShortest(s, src, dst, restricted)
		if err != nil {
			if len(paths) == 0 {
				return nil, err
			}
			break
		}
		paths = append(paths, p)
		if len(p.Nodes) < 2 {
			break
		}
		for i := 0; i+1 < len(p.Nodes); i++ {
			banned[[2]string{p.Nodes[i], p.Nodes[i+1]}] = true
		}
	}
	return paths, nil
}

// assertMatchesOracle runs every search between every listed pair through
// both implementations and requires DeepEqual results and equal errors.
func assertMatchesOracle(t *testing.T, label string, s *topo.Snapshot, pairs [][2]string, cost CostFunc) {
	t.Helper()
	sr := NewSearcher(s, cost)
	sameErr := func(what string, got, want error) {
		t.Helper()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%s: %s error %v, oracle %v", label, what, got, want)
		}
	}
	for _, pr := range pairs {
		src, dst := pr[0], pr[1]
		what := fmt.Sprintf("%s→%s", src, dst)

		got, err := ShortestPath(s, src, dst, cost)
		want, werr := oracleShortest(s, src, dst, cost)
		sameErr("ShortestPath "+what, err, werr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ShortestPath %s\n got %+v\nwant %+v", label, what, got, want)
		}

		// The reused searcher takes first paths from its cached full tree
		// (grow), so this case also covers the tree kernel.
		for _, reuse := range []bool{false, true} {
			var ks []Path
			if reuse {
				err = sr.KShortestEdges(src, dst, 8, func(edges []int32) {
					ks = append(ks, sr.path(src, edges))
				})
				if err != nil {
					ks = nil
				}
			} else {
				ks, err = KShortestPaths(s, src, dst, cost, 8)
			}
			wks, werr := oracleKShortest(s, src, dst, cost, 8)
			sameErr("KShortestPaths "+what, err, werr)
			if !reflect.DeepEqual(ks, wks) {
				t.Fatalf("%s: KShortestPaths %s (reused searcher %v)\n got %+v\nwant %+v", label, what, reuse, ks, wks)
			}
		}

		dp, err := DisjointPaths(s, src, dst, cost, 4)
		wdp, werr := oracleDisjoint(s, src, dst, cost, 4)
		sameErr("DisjointPaths "+what, err, werr)
		if !reflect.DeepEqual(dp, wdp) {
			t.Fatalf("%s: DisjointPaths %s\n got %+v\nwant %+v", label, what, dp, wdp)
		}
	}
}

// allPairs lists every ordered pair of the given IDs, self-pairs included.
func allPairs(ids []string) [][2]string {
	var out [][2]string
	for _, a := range ids {
		for _, b := range ids {
			out = append(out, [2]string{a, b})
		}
	}
	return out
}

// TestSearcherMatchesOracleRandom compares the kernel with the oracle on
// random constellations with random ground segments, under latency cost
// and under hop cost (where exact ties are everywhere).
func TestSearcherMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1201))
	cfg := topo.DefaultConfig()
	cfg.MinElevationDeg = 0
	for trial := 0; trial < 12; trial++ {
		c := orbit.RandomCircular(10+rng.Intn(20), 780, rng)
		specs := make([]topo.SatSpec, c.Len())
		for i, s := range c.Satellites {
			specs[i] = topo.SatSpec{ID: s.ID, Provider: fmt.Sprintf("p%d", i%3), Elements: s.Elements,
				HasLaser: i%2 == 0, MaxISLs: 2 + rng.Intn(4)}
		}
		var grounds []topo.GroundSpec
		var users []topo.UserSpec
		var ends []string
		for i := 0; i < 3; i++ {
			g := topo.GroundSpec{ID: fmt.Sprintf("g%d", i), Provider: "p0",
				Pos: geo.LatLon{Lat: rng.Float64()*140 - 70, Lon: rng.Float64()*360 - 180}}
			u := topo.UserSpec{ID: fmt.Sprintf("u%d", i), Provider: "p1",
				Pos: geo.LatLon{Lat: rng.Float64()*140 - 70, Lon: rng.Float64()*360 - 180}}
			grounds, users = append(grounds, g), append(users, u)
			ends = append(ends, g.ID, u.ID)
		}
		snap := topo.Build(float64(trial)*60, cfg, specs, grounds, users)
		ends = append(ends, specs[0].ID, "ghost")
		label := fmt.Sprintf("trial %d", trial)
		assertMatchesOracle(t, label+" latency", snap, allPairs(ends), LatencyCost(0.001))
		assertMatchesOracle(t, label+" hops", snap, allPairs(ends[:4]), HopCost())
		assertMatchesOracle(t, label+" qos", snap, allPairs(ends[:4]), DefaultQoS().Cost())
	}
}

// TestSearcherMatchesOracleGrid compares on +Grid Walker snapshots, whose
// regular wiring produces many exact cost ties between distinct paths.
func TestSearcherMatchesOracleGrid(t *testing.T) {
	w, err := orbit.SquareWalkerDelta(64, 550, 53)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := topo.DefaultConfig()
	if cfg.StaticISLs, err = w.GridISLs(w.DefaultGrid()); err != nil {
		t.Fatal(err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements, HasLaser: true}
	}
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	snap := topo.Build(0, cfg, specs, grounds, users)
	ends := []string{"u", "gs", specs[0].ID, specs[27].ID, specs[63].ID}
	assertMatchesOracle(t, "grid latency", snap, allPairs(ends), LatencyCost(0))
	assertMatchesOracle(t, "grid hops", snap, allPairs(ends), HopCost())
}

// TestSearcherMatchesOracleDiamonds compares on synthetic graphs built
// from chained equal-weight diamonds: every source-destination pair has
// exponentially many exactly tied shortest paths, and some links exist in
// one direction only.
func TestSearcherMatchesOracleDiamonds(t *testing.T) {
	rng := rand.New(rand.NewSource(1202))
	for trial := 0; trial < 8; trial++ {
		var nodes []topo.Node
		var edges []topo.Edge
		add := func(a, b string, oneWay bool) {
			e := topo.Edge{From: a, To: b, Kind: topo.LinkISLLaser, DistanceKm: 1000, DelayS: 0.004,
				CapacityBps: float64(1+rng.Intn(3)) * 1e9}
			edges = append(edges, e)
			if !oneWay {
				e.From, e.To = b, a
				edges = append(edges, e)
			}
		}
		hubs := 3 + rng.Intn(4)
		// Node IDs are shuffled against hub order so ID order and
		// discovery order disagree.
		name := func(h, side int) string { return fmt.Sprintf("n%02d", (h*7+side*3+trial)%97) }
		seen := map[string]bool{}
		for h := 0; h <= hubs; h++ {
			for side := 0; side < 3; side++ {
				if id := name(h, side); !seen[id] {
					seen[id] = true
					nodes = append(nodes, topo.Node{ID: id, Kind: topo.KindSatellite})
				}
			}
		}
		for h := 0; h < hubs; h++ {
			hub, next := name(h, 0), name(h+1, 0)
			add(hub, name(h, 1), false)
			add(hub, name(h, 2), false)
			add(name(h, 1), next, false)
			add(name(h, 2), next, rng.Intn(4) == 0)
		}
		snap, err := topo.NewSnapshot(0, nodes, edges)
		if err != nil {
			t.Fatal(err)
		}
		var ends []string
		for h := 0; h <= hubs; h += 2 {
			ends = append(ends, name(h, 0), name(h, 1))
		}
		label := fmt.Sprintf("diamonds %d", trial)
		assertMatchesOracle(t, label, snap, allPairs(ends), LatencyCost(0))
		assertMatchesOracle(t, label+" hops", snap, allPairs(ends), HopCost())
	}
}

// TestSearcherMaskMatchesOverlay pins the masked recompute: a searcher on
// the intact snapshot with a mask applied finds exactly the path a fresh
// search of the overlay finds.
func TestSearcherMaskMatchesOverlay(t *testing.T) {
	s := testSnapshot(t, 1, false)
	ids := s.Nodes()
	rng := rand.New(rand.NewSource(1203))
	cost := LatencyCost(0)
	sr := NewSearcher(s, cost)
	for trial := 0; trial < 20; trial++ {
		m := maskSet{nodes: map[string]bool{}, edges: map[[2]string]bool{}}
		for i := 0; i < trial%5; i++ {
			m.nodes[ids[rng.Intn(len(ids))]] = true
		}
		for _, e := range neighbors(s, ids[rng.Intn(len(ids))]) {
			if rng.Intn(2) == 0 {
				m.edges[edgePair(e.From, e.To)] = true
			}
		}
		over := s.Overlay(m)
		sr.Mask(m)
		for _, pr := range [][2]string{{"u-nairobi", "gs-seattle"}, {"gs-seattle", "u-nairobi"}} {
			want, werr := ShortestPath(over, pr[0], pr[1], cost)
			if m.NodeDown(pr[0]) || m.NodeDown(pr[1]) {
				continue // callers treat a down endpoint as no route
			}
			got, err := sr.ShortestPath(pr[0], pr[1])
			if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v: masked %+v (%v), overlay %+v (%v)", trial, pr, got, err, want, werr)
			}
		}
	}
	sr.Mask(nil)
	got, _ := sr.ShortestPath("u-nairobi", "gs-seattle")
	want, _ := ShortestPath(s, "u-nairobi", "gs-seattle", cost)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("clearing the mask did not restore the intact search")
	}
}

// TestSearcherMaskEdgeCases: on entries the random masks above rarely
// produce, Mask must leave exactly the weights a searcher built on the
// overlay has — stray entries naming unknown nodes or absent links hide
// nothing, a one-way link goes whichever way it is named, a node down
// with its incident link hides that link once, and a searcher on an
// overlay masks like the stacked overlay.
func TestSearcherMaskEdgeCases(t *testing.T) {
	cost := HopCost()
	assertMask := func(label string, s *topo.Snapshot, m maskSet) {
		t.Helper()
		sr := NewSearcher(s, cost)
		sr.Mask(maskSet{nodes: map[string]bool{s.Nodes()[0]: true}}) // dirty it first
		sr.Mask(m)
		if want := NewSearcher(s.Overlay(m), cost).w; !reflect.DeepEqual(sr.w, want) {
			t.Errorf("%s: masked weights differ from the overlay's", label)
		}
	}
	s := testSnapshot(t, 1, false)
	ids := s.Nodes()
	var hop topo.Edge
	s.Neighbors(ids[3], func(e topo.Edge) { hop = e })
	var far string // a node with no edge to ids[3]
	for _, id := range ids[4:] {
		if _, ok := s.Edge(ids[3], id); !ok {
			far = id
			break
		}
	}
	if far == "" {
		t.Fatal("fixture has no node unlinked to ids[3]")
	}
	assertMask("stray", s, maskSet{nodes: map[string]bool{"zz": true},
		edges: map[[2]string]bool{edgePair("zz", ids[3]): true, edgePair(ids[3], far): true}})
	assertMask("node and incident link", s, maskSet{nodes: map[string]bool{hop.To: true},
		edges: map[[2]string]bool{edgePair(hop.From, hop.To): true}})
	over := s.Overlay(maskSet{nodes: map[string]bool{ids[5]: true}, edges: map[[2]string]bool{edgePair(hop.From, hop.To): true}})
	assertMask("stacked", over, maskSet{nodes: map[string]bool{ids[5]: true, ids[7]: true},
		edges: map[[2]string]bool{edgePair(hop.From, hop.To): true, edgePair(ids[9], ids[10]): true}})

	oneWay, err := topo.NewSnapshot(0, []topo.Node{{ID: "a"}, {ID: "b"}, {ID: "c"}},
		[]topo.Edge{{From: "a", To: "b"}, {From: "b", To: "c"}, {From: "c", To: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	assertMask("one-way a-b", oneWay, maskSet{edges: map[[2]string]bool{{"a", "b"}: true}})
	assertMask("one-way b-a", oneWay, maskSet{edges: map[[2]string]bool{{"b", "a"}: true}})
}

type maskSet struct {
	nodes map[string]bool
	edges map[[2]string]bool
}

func edgePair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func (m maskSet) Walk(node func(string), link func(a, b string)) {
	for id := range m.nodes {
		node(id)
	}
	for e := range m.edges {
		link(e[0], e[1])
	}
}
func (m maskSet) NodeDown(id string) bool   { return m.nodes[id] }
func (m maskSet) EdgeDown(a, b string) bool { return m.edges[edgePair(a, b)] }
func (m maskSet) Empty() bool               { return len(m.nodes) == 0 && len(m.edges) == 0 }
