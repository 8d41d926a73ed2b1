package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/experiments"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

// capacityConfig is E14 on random constellations at two committed N
// points with all 60 trials each: 120 tasks whose cost is almost all
// max-min allocation over freshly built small graphs.
func capacityConfig(seed int64) experiments.CapacityConfig {
	cfg := experiments.DefaultCapacity()
	cfg.MinSats, cfg.MaxSats, cfg.Step = 32, 64, 32
	cfg.Seed += seed
	cfg.Workers = workers
	return cfg
}

// capacitySetupConfig is the cheap committed slice the set-up checks.
func capacitySetupConfig() experiments.CapacityConfig {
	cfg := capacityConfig(0)
	cfg.MinSats, cfg.MaxSats, cfg.Step = 8, 16, 4
	return cfg
}

func capacityPoints(cfg experiments.CapacityConfig) []string {
	var keys []string
	for n := cfg.MinSats; n <= cfg.MaxSats; n += cfg.Step {
		keys = append(keys, strconv.Itoa(n))
	}
	return keys
}

func capacityGolden(cfg experiments.CapacityConfig) (golden, error) {
	return loadGolden("results/capacity.csv", "satellites", capacityPoints(cfg))
}

func runCapacity(cfg experiments.CapacityConfig) (result, error) {
	res := result{tasks: len(capacityPoints(cfg)) * cfg.Trials}
	r, err := experiments.Capacity(cfg)
	if err != nil {
		res.failed = res.tasks
		return res, err
	}
	var buf bytes.Buffer
	err = r.CSV(&buf)
	res.csv = buf.Bytes()
	return res, err
}

// capacityCounts reads the task count back from the CSV: one row per N
// point, one task per trial.
func capacityCounts(cfg experiments.CapacityConfig, csv []byte) (map[string]int64, error) {
	rows := bytes.Count(csv, []byte("\n")) - 1
	return map[string]int64{"exec.tasks": int64(rows * cfg.Trials)}, nil
}

// capacityGateways mirrors the experiment's gateway siting: the most
// populous world cities, ties broken by name.
func capacityGateways(count int) []traffic.Gateway {
	cities := sim.WorldCities()
	sort.Slice(cities, func(a, b int) bool {
		if cities[a].PopM != cities[b].PopM {
			return cities[a].PopM > cities[b].PopM
		}
		return cities[a].Name < cities[b].Name
	})
	count = min(count, len(cities))
	gws := make([]traffic.Gateway, count)
	for i := range gws {
		gws[i] = traffic.Gateway{ID: "gw-" + cities[i].Name, Pos: cities[i].Pos}
	}
	return gws
}

type capacityTrial struct {
	offeredBps, carriedBps, satisfied, jain, bottleneckUtil, maxflowBps float64
	bottleneckKind                                                      string
	cutLinks                                                            int
}

// kspInput is what one task's MaxMinFair routed: replayed afterwards as
// one KShortestPaths call per demand.
type kspInput struct {
	task    int64 // the span of the task that made the call
	snap    *topo.Snapshot
	demands []traffic.Demand
}

// tracedCapacity drives each E14 task through the layers' public
// functions with the same calls, seeds and order as experiments.Capacity
// (random topology), timing each call. It returns the same CSV bytes and
// the replay of the KShortestPaths calls nested in MaxMinFair.
func tracedCapacity(cfg experiments.CapacityConfig, tr *tracer, root int64) (result, func() error, error) {
	var points []int
	for n := cfg.MinSats; n <= cfg.MaxSats; n += cfg.Step {
		points = append(points, n)
	}
	res := result{tasks: len(points) * cfg.Trials}
	gws := capacityGateways(cfg.Gateways)
	groundSpecs := make([]topo.GroundSpec, len(gws))
	for i, g := range gws {
		groundSpecs[i] = topo.GroundSpec{ID: g.ID, Provider: "p", Pos: g.Pos}
	}
	tcfg := topo.DefaultConfig()
	tcfg.MinElevationDeg = cfg.MinElevationDeg
	model := traffic.DefaultCapacityModel()
	dcfg := traffic.DefaultDemandConfig()
	dcfg.PerUserBps = cfg.PerUserBps
	dcfg.MinElevationDeg = cfg.MinElevationDeg
	dcfg.WindowS = 1

	replay := make([]kspInput, res.tasks)
	pool := tr.begin("exec.Map", root, -1)
	outs, err := exec.Map(cfg.Workers, res.tasks, func(i int) (capacityTrial, error) {
		task := tr.begin("exec.task", pool.ID, i)
		defer tr.end(task)
		tr.count("exec.tasks", 1)
		pi, trial := i/cfg.Trials, i%cfg.Trials
		n := points[pi]
		demandRNG := exec.RNG(cfg.Seed, -1, int64(trial))
		rng := exec.RNG(cfg.Seed, int64(n), int64(trial))
		s := tr.begin("orbit.RandomCircular", task.ID, i)
		c := orbit.RandomCircular(n, cfg.AltitudeKm, rng)
		tr.end(s)
		specs := make([]topo.SatSpec, c.Len())
		for si, sat := range c.Satellites {
			specs[si] = topo.SatSpec{
				ID: sat.ID, Provider: "p", Elements: sat.Elements,
				HasLaser: float64(si) < cfg.LaserFraction*float64(n),
				MaxISLs:  cfg.MaxISLs,
			}
		}
		users := sim.CityUsers(cfg.Users, cfg.ScatterKm, demandRNG)
		s = tr.begin("traffic.BuildDemandMatrix", task.ID, i)
		dm, err := traffic.BuildDemandMatrix(gws, c.Satellites, users, dcfg, demandRNG)
		tr.end(s)
		if err != nil {
			return capacityTrial{}, err
		}
		tr.count("traffic.demands", int64(len(dm.Demands)))
		out := capacityTrial{offeredBps: float64(cfg.Users) * cfg.PerUserBps}
		if len(dm.Demands) == 0 {
			return out, nil
		}
		s = tr.begin("topo.Build", task.ID, i)
		snap := topo.Build(0, tcfg, specs, groundSpecs, nil)
		tr.end(s)
		net := traffic.NewNetwork(snap)
		net.Recapacitate(model)
		s = tr.begin("traffic.MaxMinFair", task.ID, i)
		alloc, err := traffic.MaxMinFair(net, dm.Demands, traffic.AllocConfig{KPaths: cfg.KPaths})
		tr.end(s)
		if err != nil {
			return capacityTrial{}, err
		}
		replay[i] = kspInput{task: task.ID, snap: snap, demands: dm.Demands}
		out.carriedBps = alloc.CarriedBps()
		out.satisfied = alloc.CarriedBps() / out.offeredBps
		out.jain = alloc.JainIndex()
		link, util := alloc.MaxUtilization()
		out.bottleneckUtil = util
		if e, ok := snap.Edge(link.From, link.To); ok {
			out.bottleneckKind = e.Kind.String()
		}
		top := dm.Demands[0]
		for _, d := range dm.Demands[1:] {
			if d.OfferedBps > top.OfferedBps {
				top = d
			}
		}
		s = tr.begin("traffic.MaxFlow", task.ID, i)
		mf, err := traffic.MaxFlow(net, top.Src, top.Dst)
		tr.end(s)
		if err != nil {
			return capacityTrial{}, err
		}
		out.maxflowBps = mf.ValueBps
		out.cutLinks = len(mf.MinCut)
		return out, nil
	})
	tr.end(pool)
	if err != nil {
		res.failed = res.tasks
		return res, nil, err
	}

	emit := tr.begin("experiments.emit", root, -1)
	res.csv, err = capacityCSV(cfg, points, outs)
	tr.end(emit)

	replayFn := func() error {
		return exec.ForEach(cfg.Workers, len(replay), func(i int) error {
			// MaxMinFair leaves a demand unrouted when its search fails, so
			// the replay ignores search errors the same way.
			in := replay[i]
			for _, d := range in.demands {
				s := tr.begin("routing.KShortestPaths", in.task, i)
				s.Replay = true
				_, _ = routing.KShortestPaths(in.snap, d.Src, d.Dst, traffic.GatewayTransitCost(), cfg.KPaths)
				tr.end(s)
			}
			tr.count("routing.ksp_calls", int64(len(in.demands)))
			return nil
		})
	}
	return res, replayFn, err
}

// capacityCSV aggregates trials into rows exactly as experiments.Capacity
// does and writes them in its CSV format.
func capacityCSV(cfg experiments.CapacityConfig, points []int, outs []capacityTrial) ([]byte, error) {
	f := func(v float64) string { return fmt.Sprintf("%.6g", v) }
	offeredGbps := float64(cfg.Users) * cfg.PerUserBps / 1e9
	var rows [][]string
	for pi, n := range points {
		var carried, satisfied, jain, bottleneck, maxflow, cut sim.Histogram
		kinds := map[string]int{}
		for trial := 0; trial < cfg.Trials; trial++ {
			out := outs[pi*cfg.Trials+trial]
			carried.Add(out.carriedBps / 1e9)
			satisfied.Add(out.satisfied)
			jain.Add(out.jain)
			bottleneck.Add(out.bottleneckUtil)
			maxflow.Add(out.maxflowBps / 1e9)
			cut.Add(float64(out.cutLinks))
			if out.bottleneckKind != "" {
				kinds[out.bottleneckKind]++
			}
		}
		rows = append(rows, []string{
			strconv.Itoa(n), f(offeredGbps), f(carried.Mean()), f(carried.Stddev()),
			f(satisfied.Mean()), f(jain.Mean()), f(bottleneck.Mean()), modalKind(kinds),
			f(maxflow.Mean()), f(cut.Mean()),
		})
	}
	var buf bytes.Buffer
	err := experiments.WriteCSV(&buf, []string{
		"satellites", "offered_gbps", "carried_gbps_mean", "carried_gbps_stddev",
		"satisfied_fraction", "jain_index", "bottleneck_util", "bottleneck_kind",
		"maxflow_top_gbps", "mincut_links",
	}, rows)
	return buf.Bytes(), err
}

// modalKind is the most common bottleneck link class, ties broken
// lexicographically.
func modalKind(kinds map[string]int) string {
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	best, bestN := "", 0
	for _, k := range names {
		if kinds[k] > bestN {
			best, bestN = k, kinds[k]
		}
	}
	return best
}
