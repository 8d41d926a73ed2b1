package experiments

import (
	"fmt"
	"io"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
)

// DTNConfig parameterises E11: how much service a below-critical-mass
// fleet can offer when bundles may be stored on board and forwarded at the
// next contact (routing.EarliestArrival), versus requiring an instantaneous
// end-to-end path. This is the incremental-deployment pathway of §4 made
// quantitative: a two-satellite startup cannot offer synchronous service,
// but it can offer delivery within hours.
type DTNConfig struct {
	FleetSizes []int
	Trials     int
	HorizonS   float64 // store-and-forward patience
	IntervalS  float64 // snapshot cadence
	AltitudeKm float64
	Seed       int64
	Workers    int // parallel trial workers; ≤0 = one per CPU
}

// DefaultDTN sweeps fleets of 2..24 satellites with six hours of patience.
func DefaultDTN() DTNConfig {
	return DTNConfig{
		FleetSizes: []int{2, 4, 8, 12, 16, 24},
		Trials:     6,
		HorizonS:   6 * 3600,
		IntervalS:  120,
		AltitudeKm: 780,
		Seed:       12,
	}
}

// DTNResult carries the comparison curves.
type DTNResult struct {
	Synchronous  sim.Series // fleet size vs fraction of trials with an instant path
	StoreForward sim.Series // fleet size vs fraction deliverable within the horizon
	MedianDelay  sim.Series // fleet size vs median store-and-forward delivery delay (min)
}

// DTNExperiment runs E11 between Nairobi and London.
func DTNExperiment(cfg DTNConfig) (*DTNResult, error) {
	if len(cfg.FleetSizes) == 0 || cfg.Trials <= 0 || cfg.HorizonS <= 0 || cfg.IntervalS <= 0 {
		return nil, fmt.Errorf("experiments: dtn: bad config")
	}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	grounds := []topo.GroundSpec{{ID: "g", Provider: "p", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}}}

	res := &DTNResult{
		Synchronous:  sim.Series{Name: "instant path available"},
		StoreForward: sim.Series{Name: "deliverable with storage"},
		MedianDelay:  sim.Series{Name: "median s&f delay (min)"},
	}
	// One task per (fleet size, trial); each builds its own time-expanded
	// topology from a per-task RNG, keeping the curves bitwise identical
	// at any worker count. Nested snapshot parallelism stays off (Workers
	// is already spent at the trial level).
	type trialOut struct {
		sync, dtn bool
		delayMin  float64
	}
	tcfg := topo.DefaultConfig()
	tcfg.Workers = 1
	outs, err := exec.Map(cfg.Workers, len(cfg.FleetSizes)*cfg.Trials, func(i int) (trialOut, error) {
		n, trial := cfg.FleetSizes[i/cfg.Trials], i%cfg.Trials
		rng := exec.RNG(cfg.Seed, int64(n), int64(trial))
		c := orbit.RandomCircular(n, cfg.AltitudeKm, rng)
		sats := make([]topo.SatSpec, c.Len())
		for si, s := range c.Satellites {
			sats[si] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
		}
		te, err := topo.BuildTimeExpanded(0, cfg.HorizonS, cfg.IntervalS,
			tcfg, sats, grounds, users)
		if err != nil {
			return trialOut{}, err
		}
		var out trialOut
		if _, err := routing.ShortestPath(te.Snap(0), "u", "g", routing.LatencyCost(0)); err == nil {
			out.sync = true
		}
		if route, err := routing.EarliestArrival(te, "u", "g", 0, 0); err == nil {
			out.dtn = true
			out.delayMin = route.ArrivalS / 60
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for fi, n := range cfg.FleetSizes {
		sync, dtn := 0, 0
		var delays sim.Histogram
		for trial := 0; trial < cfg.Trials; trial++ {
			out := outs[fi*cfg.Trials+trial]
			if out.sync {
				sync++
			}
			if out.dtn {
				dtn++
				delays.Add(out.delayMin)
			}
		}
		x := float64(n)
		res.Synchronous.Append(x, float64(sync)/float64(cfg.Trials), 0)
		res.StoreForward.Append(x, float64(dtn)/float64(cfg.Trials), 0)
		if delays.Count() > 0 {
			res.MedianDelay.Append(x, delays.Quantile(0.5), 0)
		}
	}
	return res, nil
}

// CSV writes the curves.
func (r *DTNResult) CSV(w io.Writer) error {
	sf := map[float64]float64{}
	for _, p := range r.StoreForward.Points {
		sf[p.X] = p.Y
	}
	md := map[float64]float64{}
	for _, p := range r.MedianDelay.Points {
		md[p.X] = p.Y
	}
	var rows [][]string
	for _, p := range r.Synchronous.Points {
		rows = append(rows, []string{f(p.X), f(p.Y), f(sf[p.X]), f(md[p.X])})
	}
	return WriteCSV(w, []string{"fleet_size", "instant_fraction",
		"storeforward_fraction", "median_delay_min"}, rows)
}

// Render draws the comparison.
func (r *DTNResult) Render(w io.Writer) error {
	if err := RenderSeries(w, "E11: sparse fleets — instant connectivity vs store-and-forward",
		"fleet size", "deliverable fraction",
		[]*sim.Series{&r.Synchronous, &r.StoreForward}, 60, 12); err != nil {
		return err
	}
	for _, p := range r.MedianDelay.Points {
		fmt.Fprintf(w, "  fleet %2.0f: median store-and-forward delivery %.0f min\n", p.X, p.Y)
	}
	return nil
}
