package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/experiments"
	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
)

// availabilityConfig is E15 in its committed configuration: Iridium,
// intensities ×0–×8, 5 trials each.
func availabilityConfig(seed int64) experiments.AvailabilityConfig {
	cfg := experiments.DefaultAvailability()
	cfg.Seed += seed
	cfg.Workers = workers
	return cfg
}

// availabilitySetupConfig is the cheap committed prefix the set-up
// checks. Task seeds follow the intensity's index, so only a prefix of
// the sweep reproduces committed rows.
func availabilitySetupConfig() experiments.AvailabilityConfig {
	cfg := availabilityConfig(0)
	cfg.Intensities = cfg.Intensities[:3]
	return cfg
}

func availabilityGolden(cfg experiments.AvailabilityConfig) (golden, error) {
	keys := make([]string, len(cfg.Intensities))
	for i, v := range cfg.Intensities {
		keys[i] = fmt.Sprintf("%.6g", v)
	}
	return loadGolden("results/availability.csv", "intensity", keys)
}

func runAvailability(cfg experiments.AvailabilityConfig) (result, error) {
	res := result{tasks: len(cfg.Intensities) * cfg.Trials}
	r, err := experiments.Availability(cfg)
	if err != nil {
		res.failed = res.tasks
		return res, err
	}
	var buf bytes.Buffer
	err = r.CSV(&buf)
	res.csv = buf.Bytes()
	return res, err
}

// availabilityCounts reads the fault-transition total back from the CSV:
// each row's fault_events_mean is its transitions over the trials.
func availabilityCounts(cfg experiments.AvailabilityConfig, csv []byte) (map[string]int64, error) {
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	var transitions int64
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, err
		}
		transitions += int64(math.Round(v * float64(cfg.Trials)))
	}
	return map[string]int64{
		"exec.tasks":         int64(len(lines)-1) * int64(cfg.Trials),
		"faults.transitions": transitions,
	}, nil
}

type availabilityTrial struct {
	avail       []float64
	interrupts  int
	downtimeS   float64
	recoveryS   []float64
	reroutes    int
	flows       int
	transitions int
}

// overlayInput is one task's fault timeline, replayed afterwards as one
// Snapshot.Overlay call per mask state change.
type overlayInput struct {
	task int64
	tl   *faults.Timeline
}

// tracedAvailability drives each E15 task through faults.Generate and
// faults.RunFlows with the same calls, seeds and order as
// experiments.Availability (Iridium), timing each call. It returns the
// same CSV bytes and the replay of the Overlay calls that fault
// transitions cause.
func tracedAvailability(cfg experiments.AvailabilityConfig, tr *tracer, root int64) (result, func() error, error) {
	res := result{tasks: len(cfg.Intensities) * cfg.Trials}
	tcfg := topo.DefaultConfig()
	tcfg.MinElevationDeg = 0
	s := tr.begin("orbit.Build", root, -1)
	c, err := orbit.Iridium().Build()
	tr.end(s)
	if err != nil {
		return res, nil, err
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
	sats := make([]topo.SatSpec, 0, c.Len())
	for _, sat := range c.Satellites {
		sats = append(sats, topo.SatSpec{ID: sat.ID, Provider: "p", Elements: sat.Elements})
	}
	s = tr.begin("topo.Build", root, -1)
	snap := topo.Build(0, tcfg, sats, grounds, users)
	tr.end(s)
	in := faults.InputsFromSnapshot(snap)

	replay := make([]overlayInput, res.tasks)
	pool := tr.begin("exec.Map", root, -1)
	outs, err := exec.Map(cfg.Workers, res.tasks, func(i int) (availabilityTrial, error) {
		task := tr.begin("exec.task", pool.ID, i)
		defer tr.end(task)
		tr.count("exec.tasks", 1)
		ii, trial := i/cfg.Trials, i%cfg.Trials
		fcfg := cfg.Faults
		fcfg.Seed = exec.Seed(cfg.Seed, int64(ii), int64(trial))
		fcfg = fcfg.Scale(cfg.Intensities[ii])
		s := tr.begin("faults.Generate", task.ID, i)
		tl, err := faults.Generate(fcfg, cfg.HorizonS, in)
		tr.end(s)
		if err != nil {
			return availabilityTrial{}, err
		}
		s = tr.begin("faults.RunFlows", task.ID, i)
		rr, err := faults.RunFlows(snap, specs, tl, cfg.Recovery, routing.LatencyCost(0))
		tr.end(s)
		if err != nil {
			return availabilityTrial{}, err
		}
		tr.count("faults.transitions", int64(rr.FaultTransitions))
		replay[i] = overlayInput{task: task.ID, tl: tl}
		out := availabilityTrial{transitions: rr.FaultTransitions}
		for _, f := range rr.Flows {
			if f.NoPath {
				continue
			}
			out.flows++
			out.avail = append(out.avail, f.Avail.Availability(rr.HorizonS))
			out.interrupts += f.Avail.Interruptions
			out.downtimeS += f.Avail.DowntimeS
			out.recoveryS = append(out.recoveryS, f.Avail.RecoveryS.Samples()...)
			out.reroutes += f.Avail.Reroutes
		}
		return out, nil
	})
	tr.end(pool)
	if err != nil {
		res.failed = res.tasks
		return res, nil, err
	}

	emit := tr.begin("experiments.emit", root, -1)
	res.csv, err = availabilityCSV(cfg, outs)
	tr.end(emit)

	replayFn := func() error {
		return exec.ForEach(cfg.Workers, len(replay), func(i int) error {
			return replayOverlays(snap, replay[i], tr, i)
		})
	}
	return res, replayFn, err
}

// replayOverlays walks the timeline's mask states in the order RunFlows
// sees them and takes the degraded snapshot view after each transition.
func replayOverlays(snap *topo.Snapshot, in overlayInput, tr *tracer, task int) error {
	engine := sim.NewEngine()
	mask := faults.NewMask()
	calls := int64(0)
	err := in.tl.Drive(engine, mask, func(*sim.Engine, faults.Event, bool) {
		s := tr.begin("topo.Overlay", in.task, task)
		s.Replay = true
		snap.Overlay(mask)
		tr.end(s)
		calls++
	})
	if err != nil {
		return err
	}
	engine.Run(in.tl.HorizonS)
	tr.count("topo.overlay_calls", calls)
	return nil
}

// availabilityCSV aggregates trials into rows exactly as
// experiments.Availability does and writes them with its CSV method.
func availabilityCSV(cfg experiments.AvailabilityConfig, outs []availabilityTrial) ([]byte, error) {
	res := &experiments.AvailabilityResult{}
	for ii, intensity := range cfg.Intensities {
		var avail, recov sim.Histogram
		row := experiments.AvailabilityRow{Intensity: intensity}
		flows, transitions := 0, 0
		for trial := 0; trial < cfg.Trials; trial++ {
			out := outs[ii*cfg.Trials+trial]
			for _, v := range out.avail {
				avail.Add(v)
			}
			for _, v := range out.recoveryS {
				recov.Add(v)
			}
			row.Interruptions += float64(out.interrupts)
			row.DowntimeS += out.downtimeS
			row.FRRFraction += float64(out.reroutes)
			flows += out.flows
			transitions += out.transitions
		}
		if flows > 0 {
			row.Interruptions /= float64(flows)
			row.DowntimeS /= float64(flows)
		}
		if recov.Count() > 0 {
			row.FRRFraction /= float64(recov.Count())
		} else {
			row.FRRFraction = 0
		}
		row.Availability = avail.Mean()
		row.AvailabilityMin = avail.Min()
		row.MTTRS = recov.Mean()
		row.RecoveryP50Ms = recov.Quantile(0.5) * 1000
		row.RecoveryP95Ms = recov.Quantile(0.95) * 1000
		row.FaultEvents = float64(transitions) / float64(cfg.Trials)
		res.Rows = append(res.Rows, row)
	}
	var buf bytes.Buffer
	err := res.CSV(&buf)
	return buf.Bytes(), err
}
