package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
)

// stringMask is the mask Mask replaced: outage counts keyed by node ID and
// by undirected ID pair, with path liveness checked hop by hop against
// those maps. It is the oracle the index-keyed mask and RunFlows' liveness
// are tested against.
type stringMask struct {
	nodes map[string]int
	edges map[[2]string]int
}

func newStringMask() *stringMask {
	return &stringMask{nodes: make(map[string]int), edges: make(map[[2]string]int)}
}

// edgeKey normalises an undirected link key.
func edgeKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// target names ev's element through in: a node ID, or an ISL's endpoints.
func target(in *Inputs, ev Event) (node string, isl [2]string) {
	switch ev.Kind {
	case KindSatFailure, KindStorm:
		return in.Satellites[ev.Elem], isl
	case KindGroundOutage:
		return in.Grounds[ev.Elem], isl
	default:
		return "", in.ISLs[ev.Elem]
	}
}

func (m *stringMask) Apply(in *Inputs, ev Event) {
	if node, isl := target(in, ev); node != "" {
		m.nodes[node]++
	} else {
		m.edges[edgeKey(isl[0], isl[1])]++
	}
}

func (m *stringMask) Clear(in *Inputs, ev Event) {
	if node, isl := target(in, ev); node != "" {
		if m.nodes[node]--; m.nodes[node] <= 0 {
			delete(m.nodes, node)
		}
	} else {
		key := edgeKey(isl[0], isl[1])
		if m.edges[key]--; m.edges[key] <= 0 {
			delete(m.edges, key)
		}
	}
}

func (m *stringMask) NodeDown(id string) bool { return m.nodes[id] > 0 }

func (m *stringMask) EdgeDown(from, to string) bool { return m.edges[edgeKey(from, to)] > 0 }

func (m *stringMask) Walk(node func(id string), link func(a, b string)) {
	for id := range m.nodes {
		node(id)
	}
	for k := range m.edges {
		link(k[0], k[1])
	}
}

func (m *stringMask) Empty() bool { return len(m.nodes) == 0 && len(m.edges) == 0 }

func (m *stringMask) Down() (nodes, edges int) { return len(m.nodes), len(m.edges) }

// PathDown reports whether any node or hop of the node sequence is failed.
func (m *stringMask) PathDown(nodes []string) bool {
	for i, id := range nodes {
		if m.NodeDown(id) {
			return true
		}
		if i+1 < len(nodes) && m.EdgeDown(id, nodes[i+1]) {
			return true
		}
	}
	return false
}

// maskAt returns the oracle holding every event of tl active at time t:
// the timeline sampled at an instant without an engine.
func maskAt(tl *Timeline, t float64) *stringMask {
	m := newStringMask()
	for _, ev := range tl.Events {
		if ev.StartS <= t && t < ev.EndS {
			m.Apply(&tl.Inputs, ev)
		}
	}
	return m
}

// downSet is a mask's walk as sorted strings, links in normalised order.
func downSet(m topo.Mask) []string {
	var out []string
	m.Walk(func(id string) { out = append(out, "node "+id) },
		func(a, b string) { k := edgeKey(a, b); out = append(out, "link "+k[0]+"|"+k[1]) })
	slices.Sort(out)
	return out
}

// driveTo drives tl into a fresh Mask and runs the engine to t, so the
// mask holds what is down at t (a repair at exactly t has landed).
func driveTo(t *testing.T, tl *Timeline, at float64) *Mask {
	t.Helper()
	e := sim.NewEngine()
	m := NewMask()
	if err := tl.Drive(e, m, nil); err != nil {
		t.Fatal(err)
	}
	e.Run(at)
	return m
}

// TestMaskRefcounting: overlapping outages on one element stack, and an
// ISL flap downs the undirected link — on the mask and on the oracle.
func TestMaskRefcounting(t *testing.T) {
	in := testInputs()
	m, o := NewMask(), newStringMask()
	if err := m.bind(&in); err != nil {
		t.Fatal(err)
	}
	step := func(ev Event, down bool) {
		t.Helper()
		if down {
			m.apply(in.element(ev))
			o.Apply(&in, ev)
		} else {
			m.repair(in.element(ev))
			o.Clear(&in, ev)
		}
		if got, want := downSet(m), downSet(o); !slices.Equal(got, want) {
			t.Fatalf("mask walks %v, oracle %v", got, want)
		}
	}
	storm := Event{Kind: KindStorm, Elem: 0} // sat-0
	hard := Event{Kind: KindSatFailure, Elem: 0}
	step(storm, true)
	step(hard, true)
	step(storm, false)
	if !m.NodeDown("sat-0") || !o.NodeDown("sat-0") {
		t.Error("node with one of two overlapping outages cleared came back up")
	}
	step(hard, false)
	if m.NodeDown("sat-0") || !m.Empty() || !o.Empty() {
		t.Error("node with all outages cleared still down")
	}

	flap := Event{Kind: KindISLFlap, Elem: 0} // sat-0–sat-1
	step(flap, true)
	if m.NodeDown("sat-0") || m.NodeDown("sat-1") {
		t.Error("a link fault downed its endpoints")
	}
	if !o.EdgeDown("sat-0", "sat-1") || !o.EdgeDown("sat-1", "sat-0") {
		t.Error("edge fault must block both directions")
	}
	if n, e := o.Down(); n != 0 || e != 1 {
		t.Errorf("Down() = %d,%d want 0,1", n, e)
	}
	if !o.PathDown([]string{"sat-0", "sat-1", "sat-2"}) {
		t.Error("path through a failed hop must be down")
	}
	if o.PathDown([]string{"sat-2", "sat-3"}) {
		t.Error("path avoiding all faults reported down")
	}
	step(flap, false)
	if !m.Empty() || !o.Empty() {
		t.Error("mask not empty after clearing everything")
	}
	if NewMask().NodeDown("sat-0") || !NewMask().Empty() || len(downSet(NewMask())) != 0 {
		t.Error("an unbound mask must be empty")
	}
}

// TestMaskAt samples a timeline at instants through the oracle and
// checks the driven mask agrees: outages are half-open, [StartS, EndS).
func TestMaskAt(t *testing.T) {
	tl := &Timeline{HorizonS: 100, Inputs: testInputs(), Events: []Event{
		{Kind: KindSatFailure, Elem: 0, StartS: 10, EndS: 20}, // sat-0
		{Kind: KindISLFlap, Elem: 1, StartS: 15, EndS: 40},    // sat-1–sat-2
	}}
	if !maskAt(tl, 5).Empty() {
		t.Error("mask before any fault must be empty")
	}
	m := maskAt(tl, 16)
	if !m.NodeDown("sat-0") || !m.EdgeDown("sat-2", "sat-1") {
		t.Error("mask at 16 missing active faults")
	}
	if m = maskAt(tl, 20); m.NodeDown("sat-0") {
		t.Error("outage interval is half-open: repaired exactly at EndS")
	}
	if !maskAt(tl, 39).EdgeDown("sat-1", "sat-2") {
		t.Error("flap still active at 39")
	}
	if !maskAt(tl, 50).Empty() {
		t.Error("mask after all repairs must be empty")
	}
	for _, at := range []float64{5, 10, 16, 20, 39, 40, 50} {
		if got, want := downSet(driveTo(t, tl, at)), downSet(maskAt(tl, at)); !slices.Equal(got, want) {
			t.Errorf("driven mask at %v walks %v, oracle %v", at, got, want)
		}
	}
}

// oracleSnapshot builds the E15 topology at t=0 on Iridium, or on a
// +Grid Walker Delta of gridSats satellites with laser ISLs.
func oracleSnapshot(t *testing.T, gridSats int) *topo.Snapshot {
	t.Helper()
	tcfg := topo.DefaultConfig()
	tcfg.MinElevationDeg = 0
	var c *orbit.Constellation
	var err error
	if gridSats > 0 {
		w, err := orbit.SquareWalkerDelta(gridSats, 550, 53)
		if err != nil {
			t.Fatal(err)
		}
		if c, err = w.Build(); err != nil {
			t.Fatal(err)
		}
		if tcfg.StaticISLs, err = w.GridISLs(w.DefaultGrid()); err != nil {
			t.Fatal(err)
		}
	} else if c, err = orbit.Iridium().Build(); err != nil {
		t.Fatal(err)
	}
	sats := make([]topo.SatSpec, 0, c.Len())
	for _, s := range c.Satellites {
		sats = append(sats, topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements, HasLaser: gridSats > 0})
	}
	grounds := []topo.GroundSpec{
		{ID: "g0", Provider: "p", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}},
		{ID: "g1", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}},
	}
	users := []topo.UserSpec{
		{ID: "u0", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}},
		{ID: "u1", Provider: "p", Pos: geo.LatLon{Lat: 40.44, Lon: -79.99}},
	}
	return topo.Build(0, tcfg, sats, grounds, users)
}

// TestMaskMatchesStringOracle drives random timelines on Iridium and a
// small +Grid and, at every transition, checks the index-keyed mask and
// path liveness against the string-keyed oracle: the walked down-set,
// NodeDown for every node of the snapshot (and an unknown ID), and the
// liveness of every protected candidate path, user flows and
// satellite-to-satellite ones alike.
func TestMaskMatchesStringOracle(t *testing.T) {
	for _, gridSats := range []int{0, 64} {
		snap := oracleSnapshot(t, gridSats)
		in := InputsFromSnapshot(snap)
		if len(in.ISLs) == 0 || len(in.Grounds) == 0 {
			t.Fatalf("grid %d: fixture has %d ISLs and %d grounds", gridSats, len(in.ISLs), len(in.Grounds))
		}
		rng := rand.New(rand.NewSource(int64(gridSats) + 1))
		sr := routing.NewSearcher(snap, routing.LatencyCost(0))
		specs := []FlowSpec{{Src: "u0", Dst: "g0"}, {Src: "u1", Dst: "g1"}, {Src: "u0", Dst: "g1"}}
		for i := 0; i < 6; i++ {
			a, b := in.Satellites[rng.Intn(len(in.Satellites))], in.Satellites[rng.Intn(len(in.Satellites))]
			specs = append(specs, FlowSpec{Src: a, Dst: b})
		}
		var paths []routing.Path
		var routes [][]int32
		for _, spec := range specs {
			f, err := protect(snap, sr, spec, 3)
			if err != nil {
				t.Fatal(err)
			}
			if f.prot == nil {
				continue
			}
			for i := range f.cands {
				paths, routes = append(paths, f.prot.Paths[i]), append(routes, f.cands[i])
			}
		}
		if len(paths) < len(specs) {
			t.Fatalf("grid %d: only %d candidate paths for %d flows", gridSats, len(paths), len(specs))
		}

		for trial := 0; trial < 6; trial++ {
			cfg := Default()
			cfg.Seed = rng.Int63()
			cfg = cfg.Scale(float64(10 + rng.Intn(60)))
			tl, err := Generate(cfg, 3600, in)
			if err != nil {
				t.Fatal(err)
			}
			e, m, o := sim.NewEngine(), NewMask(), newStringMask()
			lv := newLiveness(snap, &tl.Inputs)
			transitions, downPaths := 0, 0
			onChange := func(_ *sim.Engine, ev Event, down bool) {
				transitions++
				delta := int32(1)
				if down {
					o.Apply(&tl.Inputs, ev)
				} else {
					o.Clear(&tl.Inputs, ev)
					delta = -1
				}
				lv.update(tl.Inputs.element(ev), delta)
				if got, want := downSet(m), downSet(o); !slices.Equal(got, want) {
					t.Fatalf("grid %d trial %d transition %d: mask walks %v, oracle %v", gridSats, trial, transitions, got, want)
				}
				if m.Empty() != o.Empty() {
					t.Fatalf("grid %d trial %d transition %d: Empty %v, oracle %v", gridSats, trial, transitions, m.Empty(), o.Empty())
				}
				for _, id := range append(snap.Nodes(), "ghost") {
					if m.NodeDown(id) != o.NodeDown(id) {
						t.Fatalf("grid %d trial %d transition %d: NodeDown(%s) = %v, oracle %v",
							gridSats, trial, transitions, id, m.NodeDown(id), o.NodeDown(id))
					}
				}
				for i, p := range paths {
					if lv.up(routes[i]) == o.PathDown(p.Nodes) {
						t.Fatalf("grid %d trial %d transition %d: path %v up %v, oracle down %v",
							gridSats, trial, transitions, p.Nodes, lv.up(routes[i]), o.PathDown(p.Nodes))
					}
					if !lv.up(routes[i]) {
						downPaths++
					}
				}
			}
			if err := tl.Drive(e, m, onChange); err != nil {
				t.Fatal(err)
			}
			e.Run(tl.HorizonS)
			if transitions < 100 || downPaths == 0 {
				t.Fatalf("grid %d trial %d: %d transitions and %d down paths; the comparison is vacuous",
					gridSats, trial, transitions, downPaths)
			}
		}
	}
}

// TestGenerateRejectsUntrustedInputs: events order targets by index, which
// is their name order only on Inputs in the documented order, so Generate
// refuses anything else rather than reorder same-instant faults.
func TestGenerateRejectsUntrustedInputs(t *testing.T) {
	for name, mutate := range map[string]func(*Inputs){
		"unsorted satellites": func(in *Inputs) { in.Satellites[0], in.Satellites[1] = in.Satellites[1], in.Satellites[0] },
		"duplicate satellite": func(in *Inputs) { in.Satellites[1] = in.Satellites[0] },
		"unsorted grounds":    func(in *Inputs) { in.Grounds[0], in.Grounds[1] = in.Grounds[1], in.Grounds[0] },
		"duplicate ground":    func(in *Inputs) { in.Grounds[1] = in.Grounds[0] },
		"unsorted ISLs":       func(in *Inputs) { in.ISLs[0], in.ISLs[1] = in.ISLs[1], in.ISLs[0] },
		"duplicate ISL":       func(in *Inputs) { in.ISLs[1] = in.ISLs[0] },
		"ISL with From > To":  func(in *Inputs) { in.ISLs[0] = [2]string{"sat-1", "sat-0"} },
		"ISL with From == To": func(in *Inputs) { in.ISLs[0] = [2]string{"sat-0", "sat-0"} },
		"ISLs unsorted by To": func(in *Inputs) { in.ISLs[0] = [2]string{"sat-1", "sat-3"} },
	} {
		in := testInputs()
		mutate(&in)
		if _, err := Generate(Default(), week, in); err == nil {
			t.Errorf("%s: Generate accepted %+v", name, in)
		}
		tl := &Timeline{HorizonS: 10, Inputs: in}
		if err := tl.Drive(sim.NewEngine(), NewMask(), nil); err == nil {
			t.Errorf("%s: Drive accepted %+v", name, in)
		}
	}
	if _, err := Generate(Default(), week, testInputs()); err != nil {
		t.Errorf("ordered inputs rejected: %v", err)
	}
}

// TestGenerateOrdersByName pins the claim the index order rests on: on
// ordered Inputs, the timeline is sorted by (start, kind, target name,
// end), the order string-keyed events had.
func TestGenerateOrdersByName(t *testing.T) {
	cfg := Default().Scale(200)
	tl, err := Generate(cfg, week, testInputs())
	if err != nil {
		t.Fatal(err)
	}
	key := func(ev Event) string {
		node, isl := target(&tl.Inputs, ev)
		return fmt.Sprintf("%s|%s|%s", node, isl[0], isl[1])
	}
	ties := 0
	for i := 1; i < len(tl.Events); i++ {
		a, b := tl.Events[i-1], tl.Events[i]
		if a.StartS != b.StartS || a.Kind != b.Kind {
			continue
		}
		ties++
		if key(a) > key(b) || (key(a) == key(b) && a.EndS > b.EndS) {
			t.Fatalf("events %d and %d out of name order: %s then %s", i-1, i, key(a), key(b))
		}
	}
	if ties == 0 {
		t.Fatal("no same-instant ties; the check is vacuous")
	}
}
