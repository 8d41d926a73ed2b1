package openspace

// One benchmark per paper artifact and extension experiment (DESIGN.md's
// per-experiment index). Each benchmark regenerates its figure/table with a
// reduced-but-representative configuration so `go test -bench=.` reproduces
// every result's shape; cmd/openspace-bench runs the full-size sweeps.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"github.com/openspace-project/openspace/internal/experiments"
	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

// BenchmarkFig2aConstellation regenerates Figure 2(a): the reference
// constellation with its coverage and ISL geometry.
func BenchmarkFig2aConstellation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2a(4000)
		if err != nil {
			b.Fatal(err)
		}
		if r.CoverageExact < 0.97 {
			b.Fatalf("coverage regressed: %v", r.CoverageExact)
		}
	}
}

// BenchmarkFig2bLatency regenerates Figure 2(b): propagation latency vs
// constellation size (steep drop, ~tens of ms floor).
func BenchmarkFig2bLatency(b *testing.B) {
	cfg := experiments.DefaultFig2b()
	cfg.MaxSats, cfg.Step, cfg.Trials = 60, 10, 6
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Latency.Points) == 0 {
			b.Fatal("no latency points")
		}
	}
}

// BenchmarkFig2bWorkers measures the parallel harness's speedup on the
// Fig2b sweep. Sub-benchmark names carry the worker count, so
//
//	go test -bench 'Fig2bWorkers' -cpu 4
//
// shows serial vs parallel wall time on the same workload; on a machine
// with ≥4 cores the workers=4 run completes the sweep ≥2× faster than
// workers=1 while producing byte-identical output (the determinism tests
// in internal/experiments pin that equivalence).
func BenchmarkFig2bWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.DefaultFig2b()
			cfg.MaxSats, cfg.Step, cfg.Trials = 60, 10, 6
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig2b(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2cWorkers is the same worker sweep over the Fig2c coverage
// computation, whose per-trial grid scans are the repo's heaviest
// embarrassingly-parallel load.
func BenchmarkFig2cWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.DefaultFig2c()
			cfg.MaxSats, cfg.Step, cfg.Trials, cfg.GridSize = 60, 10, 6, 2000
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig2c(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2cCoverage regenerates Figure 2(c): coverage vs constellation
// size under the worst-case overlap rule.
func BenchmarkFig2cCoverage(b *testing.B) {
	cfg := experiments.DefaultFig2c()
	cfg.MaxSats, cfg.Step, cfg.Trials, cfg.GridSize = 60, 10, 6, 2000
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2c(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.WorstCase.Points) == 0 {
			b.Fatal("no coverage points")
		}
	}
}

// BenchmarkFederationGain regenerates E4: solo vs federated coverage.
func BenchmarkFederationGain(b *testing.B) {
	cfg := experiments.DefaultFederation()
	cfg.MaxPerFleet, cfg.Step, cfg.GridSize = 12, 4, 2000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Federation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandover regenerates E5: predictive vs re-auth handover.
func BenchmarkHandover(b *testing.B) {
	cfg := experiments.DefaultHandover()
	cfg.HorizonS = 1800
	for i := 0; i < b.N; i++ {
		r, err := experiments.HandoverExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.SpeedupFactor() < 10 {
			b.Fatalf("handover speedup regressed: %v", r.SpeedupFactor())
		}
	}
}

// BenchmarkMAC regenerates E6: CSMA/CA vs TDMA.
func BenchmarkMAC(b *testing.B) {
	cfg := experiments.DefaultMAC()
	cfg.MaxStations = 16
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MACExperiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedger regenerates E7: ledgers, settlement, peering.
func BenchmarkLedger(b *testing.B) {
	cfg := experiments.DefaultEcon()
	cfg.Transfers = 40
	for i := 0; i < b.N; i++ {
		r, err := experiments.EconExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Discrepancies != 0 {
			b.Fatalf("ledger discrepancies: %d", r.Discrepancies)
		}
	}
}

// BenchmarkLinkBudget regenerates E8: the RF/laser trade table.
func BenchmarkLinkBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.LinksExperiment(experiments.DefaultLinkDistances())
		if err != nil {
			b.Fatal(err)
		}
		if err := r.CSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutingAblation regenerates the proactive-vs-on-demand routing
// comparison called out in DESIGN.md's ablation list.
func BenchmarkRoutingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RoutingAblation(experiments.DefaultRoutingAblation())
		if err != nil {
			b.Fatal(err)
		}
		if r.OnDemandMaxUtilization > 1 {
			b.Fatal("on-demand oversubscribed a link")
		}
	}
}

// BenchmarkSpectrum regenerates E13: channel coordination demand.
func BenchmarkSpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SpectrumExperiment(experiments.DefaultSpectrum()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResilience regenerates E12: connectivity under satellite
// failures.
func BenchmarkResilience(b *testing.B) {
	cfg := experiments.DefaultResilience()
	cfg.MaxFailures, cfg.Step, cfg.Trials = 24, 12, 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Resilience(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAvailability regenerates E15: per-flow availability, recovery
// latency and fast-reroute share under swept fault intensity.
func BenchmarkAvailability(b *testing.B) {
	cfg := experiments.DefaultAvailability()
	cfg.Intensities = []float64{0, 2}
	cfg.Trials, cfg.HorizonS = 2, 1800
	for i := 0; i < b.N; i++ {
		r, err := experiments.Availability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows[0].Availability != 1 {
			b.Fatalf("fault-free availability regressed: %v", r.Rows[0].Availability)
		}
	}
}

// BenchmarkRunFlows measures one E15 trial at ×8 fault intensity: the six
// protected flows riding a six-hour Iridium fault timeline through
// faults.RunFlows, whose per-transition path liveness dominates E15.
func BenchmarkRunFlows(b *testing.B) {
	cfg := experiments.DefaultAvailability()
	c, err := orbit.Iridium().Build()
	if err != nil {
		b.Fatal(err)
	}
	sats := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		sats[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
	}
	users := []topo.UserSpec{
		{ID: "u0", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}},
		{ID: "u1", Provider: "p", Pos: geo.LatLon{Lat: 40.44, Lon: -79.99}},
		{ID: "u2", Provider: "p", Pos: geo.LatLon{Lat: -33.87, Lon: 151.21}},
	}
	grounds := []topo.GroundSpec{
		{ID: "g0", Provider: "p", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}},
		{ID: "g1", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}},
	}
	var specs []faults.FlowSpec
	for _, u := range users {
		for _, g := range grounds {
			specs = append(specs, faults.FlowSpec{ID: u.ID + "-" + g.ID, Src: u.ID, Dst: g.ID})
		}
	}
	tcfg := topo.DefaultConfig()
	tcfg.MinElevationDeg = 0
	snap := topo.Build(0, tcfg, sats, grounds, users)
	fcfg := cfg.Faults
	fcfg.Seed = cfg.Seed
	tl, err := faults.Generate(fcfg.Scale(8), cfg.HorizonS, faults.InputsFromSnapshot(snap))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rr, err := faults.RunFlows(snap, specs, tl, cfg.Recovery, routing.LatencyCost(0))
		if err != nil {
			b.Fatal(err)
		}
		if rr.FaultTransitions == 0 {
			b.Fatal("a ×8 trial must see fault transitions")
		}
	}
}

// BenchmarkDTN regenerates E11: store-and-forward vs instant connectivity
// for sparse fleets.
func BenchmarkDTN(b *testing.B) {
	cfg := experiments.DefaultDTN()
	cfg.FleetSizes = []int{4, 12}
	cfg.Trials, cfg.HorizonS, cfg.IntervalS = 2, 3*3600, 300
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DTNExperiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncentives regenerates E10: the §5(4) membership case.
func BenchmarkIncentives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.IncentivesExperiment(experiments.DefaultIncentives())
		if err != nil {
			b.Fatal(err)
		}
		if r.FederatedAvail < r.SoloAvail {
			b.Fatal("federation lost availability")
		}
	}
}

// BenchmarkCriticalMass regenerates E9: connectivity vs fleet size.
func BenchmarkCriticalMass(b *testing.B) {
	cfg := experiments.DefaultCriticalMass()
	cfg.ProviderCounts = []int{3}
	cfg.MaxSats, cfg.Step, cfg.Trials = 36, 16, 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CriticalMass(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidScenario regenerates a reduced E18 cell: one million
// effective users evolved as (city-pair × class) aggregates over a +Grid
// shell. The wall time here is what the per-flow engine would spend on
// roughly 10⁴ users — the subsystem's whole point.
func BenchmarkFluidScenario(b *testing.B) {
	cfg := experiments.DefaultUsersScale()
	cfg.Sats = 100
	cfg.UserCounts = []int{1_000_000}
	cfg.DurationS = 300
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.UsersScale(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Carried.Points) == 0 {
			b.Fatal("no carried-capacity points")
		}
	}
}

// --- Micro-benchmarks on the hot substrate paths ---

// BenchmarkEngineQueue measures the event kernel's schedule and dispatch
// through its binary heap: 50 000 events pre-seeded across an hour plus a
// self-rescheduling 15 s tick, so pushes land throughout a deep queue.
func BenchmarkEngineQueue(b *testing.B) {
	const events = 50_000
	rng := rand.New(rand.NewSource(7))
	times := make([]float64, events)
	for i := range times {
		times[i] = rng.Float64() * 3600
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		for _, at := range times {
			if err := e.Schedule(at, func(*sim.Engine) {}); err != nil {
				b.Fatal(err)
			}
		}
		var tick func(*sim.Engine)
		tick = func(e *sim.Engine) {
			if next := e.Now() + 15; next < 3600 {
				if err := e.Schedule(next, tick); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := e.Schedule(0, tick); err != nil {
			b.Fatal(err)
		}
		e.Run(3600)
		if e.Processed < events {
			b.Fatalf("processed %d of %d events", e.Processed, events)
		}
	}
}

// BenchmarkPropagation measures two-body position computation, the inner
// loop of every topology build.
func BenchmarkPropagation(b *testing.B) {
	e := orbit.Circular(780, 86.4, 30, 45)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.PositionECEF(float64(i % 6000))
	}
}

// BenchmarkSnapshotBuild measures one 66-satellite topology snapshot.
func BenchmarkSnapshotBuild(b *testing.B) {
	c, err := orbit.Iridium().Build()
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
	}
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	cfg := topo.DefaultConfig()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = topo.Build(float64(i), cfg, specs, grounds, users)
	}
}

// gridBuildInputs assembles the mega-constellation snapshot inputs: an
// as-square Walker Delta with +Grid laser wiring, one gateway, one user.
func gridBuildInputs(tb testing.TB, n int) (topo.Config, []topo.SatSpec, []topo.GroundSpec, []topo.UserSpec) {
	tb.Helper()
	w, err := orbit.SquareWalkerDelta(n, 550, 53)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := topo.DefaultConfig()
	if cfg.StaticISLs, err = w.GridISLs(w.DefaultGrid()); err != nil {
		tb.Fatal(err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements, HasLaser: true}
	}
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	return cfg, specs, grounds, users
}

// BenchmarkSnapshotBuildGrid measures one +Grid mega-constellation snapshot
// at the scaling gate's two sizes. With the spatial index the per-snapshot
// cost is near-linear in N; the CI scaling-gate job asserts that ratio.
func BenchmarkSnapshotBuildGrid(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg, specs, grounds, users := gridBuildInputs(b, n)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = topo.Build(float64(i), cfg, specs, grounds, users)
			}
		})
	}
}

// BenchmarkTimeExpandedIncremental measures the delta-update path: a 30-step
// time-expanded build where consecutive snapshots reuse the Verlet-style
// watch lists instead of re-indexing all N satellites each step.
func BenchmarkTimeExpandedIncremental(b *testing.B) {
	cfg, specs, grounds, users := gridBuildInputs(b, 500)
	cfg.Workers = 1 // isolate the incremental path from fan-out speedup
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topo.BuildTimeExpanded(0, 30*60, 60, cfg, specs, grounds, users); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlay measures degrading a 31-snapshot Iridium time-expanded
// topology under a fault mask of three satellites and three ISLs — the
// view the fault-aware core installs at every fault transition — and
// reading every snapshot of it, so each snapshot's view is built once.
func BenchmarkOverlay(b *testing.B) {
	c, err := orbit.Iridium().Build()
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
	}
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	te, err := topo.BuildTimeExpanded(0, 30*60, 60, topo.DefaultConfig(), specs, grounds, users)
	if err != nil {
		b.Fatal(err)
	}
	// Three satellites and three ISLs fail at t=0 and outlast the horizon.
	in := faults.InputsFromSnapshot(te.Snap(0))
	if len(in.ISLs) < 30 {
		b.Fatalf("fixture has %d ISLs", len(in.ISLs))
	}
	tl := &faults.Timeline{HorizonS: 1, Inputs: in}
	for _, i := range []int32{3, 29, 51} {
		tl.Events = append(tl.Events, faults.Event{Kind: faults.KindSatFailure, Elem: i, EndS: 2})
	}
	for _, i := range []int32{0, 10, 20} {
		tl.Events = append(tl.Events, faults.Event{Kind: faults.KindISLFlap, Elem: i, EndS: 2})
	}
	engine, mask := sim.NewEngine(), faults.NewMask()
	if err := tl.Drive(engine, mask, nil); err != nil {
		b.Fatal(err)
	}
	engine.Run(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := te.Overlay(mask)
		for k := 0; k < v.Len(); k++ {
			if v.Snap(k).NodeCount() != te.Snap(k).NodeCount()-3 {
				b.Fatal("overlay lost the down satellites")
			}
		}
	}
}

// BenchmarkDijkstra measures one shortest-path query on the full snapshot.
func BenchmarkDijkstra(b *testing.B) {
	c, err := orbit.Iridium().Build()
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
	}
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	snap := topo.Build(0, topo.DefaultConfig(), specs, grounds, users)
	cost := routing.LatencyCost(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := routing.ShortestPath(snap, "u", "gs", cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKShortestPaths measures one k=8 Yen query across an N=500
// +Grid mega-constellation snapshot, whose regular wiring makes many
// equal-cost spur paths.
func BenchmarkKShortestPaths(b *testing.B) {
	cfg, specs, grounds, users := gridBuildInputs(b, 500)
	snap := topo.Build(0, cfg, specs, grounds, users)
	cost := routing.LatencyCost(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		paths, err := routing.KShortestPaths(snap, "u", "gs", cost, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(paths) != 8 {
			b.Fatalf("%d paths, want 8", len(paths))
		}
	}
}

// iridiumTrafficNetwork builds the Iridium snapshot with two gateways and
// phy-derived capacities: the constellation-scale input for the flow
// benchmarks.
func iridiumTrafficNetwork(b *testing.B) *traffic.Network {
	b.Helper()
	c, err := orbit.Iridium().Build()
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements, HasLaser: i%2 == 0}
	}
	grounds := []topo.GroundSpec{
		{ID: "gs-seattle", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}},
		{ID: "gs-nairobi", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}},
	}
	snap := topo.Build(0, topo.DefaultConfig(), specs, grounds, nil)
	net := traffic.NewNetwork(snap)
	net.Recapacitate(traffic.DefaultCapacityModel())
	return net
}

// smallTrafficNetwork is the hand-sized diamond used to measure solver
// overhead away from graph-size effects.
func smallTrafficNetwork(b *testing.B) *traffic.Network {
	b.Helper()
	nodes := []topo.Node{
		{ID: "s", Kind: topo.KindGroundStation}, {ID: "a", Kind: topo.KindSatellite},
		{ID: "b", Kind: topo.KindSatellite}, {ID: "t", Kind: topo.KindGroundStation},
	}
	var edges []topo.Edge
	for _, e := range [][2]string{{"s", "a"}, {"s", "b"}, {"a", "b"}, {"a", "t"}, {"b", "t"}} {
		edges = append(edges, topo.Edge{
			From: e[0], To: e[1], Kind: topo.LinkISLRF,
			DistanceKm: 1000, DelayS: 0.003, CapacityBps: 10e9,
		})
	}
	snap, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		b.Fatal(err)
	}
	return traffic.NewNetwork(snap)
}

// BenchmarkMaxFlow measures one Dinic max-flow + min-cut solve.
func BenchmarkMaxFlow(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		net := smallTrafficNetwork(b)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := traffic.MaxFlow(net, "s", "t"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("iridium", func(b *testing.B) {
		net := iridiumTrafficNetwork(b)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := traffic.MaxFlow(net, "gs-seattle", "gs-nairobi"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaxMinFair measures one progressive-filling allocation.
func BenchmarkMaxMinFair(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		net := smallTrafficNetwork(b)
		demands := []traffic.Demand{
			{Src: "s", Dst: "t", OfferedBps: 8e9},
			{Src: "a", Dst: "t", OfferedBps: 8e9},
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := traffic.MaxMinFair(net, demands, traffic.AllocConfig{KPaths: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("iridium", func(b *testing.B) {
		net := iridiumTrafficNetwork(b)
		demands := []traffic.Demand{
			{Src: "gs-seattle", Dst: "gs-nairobi", OfferedBps: 2e9},
			{Src: "gs-nairobi", Dst: "gs-seattle", OfferedBps: 1e9},
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := traffic.MaxMinFair(net, demands, traffic.AllocConfig{KPaths: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The fluid evolver's shape: demands sorted by (src, dst, class), so
	// each gateway pair repeats once per traffic class, at the evolver's
	// default k of 4.
	b.Run("repeated-pairs", func(b *testing.B) {
		net := iridiumTrafficNetwork(b)
		var demands []traffic.Demand
		for _, p := range [][2]string{{"gs-nairobi", "gs-seattle"}, {"gs-seattle", "gs-nairobi"}} {
			for _, offered := range []float64{4e8, 1e8, 2.5e9} {
				demands = append(demands, traffic.Demand{Src: p[0], Dst: p[1], OfferedBps: offered})
			}
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := traffic.MaxMinFair(net, demands, traffic.AllocConfig{KPaths: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEndToEndSend measures one associated Send through a federation.
func BenchmarkEndToEndSend(b *testing.B) {
	net, err := QuickFederation(3, 42)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.AddUser("alice", "prov-0", LatLon{Lat: -1.29, Lon: 36.82}); err != nil {
		b.Fatal(err)
	}
	if err := net.BuildTopology(0, 60, 60); err != nil {
		b.Fatal(err)
	}
	if err := net.Associate("alice", 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := net.Send("alice", "gs-0", 1000, 0); err != nil {
			b.Fatal(err)
		}
	}
}
