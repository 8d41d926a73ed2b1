// Command openspace-bench regenerates the paper's figures and the
// repository's extension experiments (DESIGN.md E1–E13). Each experiment
// prints an ASCII rendering to stdout and, with -csvdir, writes a CSV for
// plotting.
//
// Usage:
//
//	openspace-bench -experiment all
//	openspace-bench -experiment fig2b -csvdir out/
//	openspace-bench -experiment fig2c -quick
//	openspace-bench -experiment disruption-campaign -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/openspace-project/openspace/internal/campaign"
	"github.com/openspace-project/openspace/internal/experiments"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/prof"
)

// renderer is the common shape of experiment results.
type renderer interface {
	Render(io.Writer) error
	CSV(io.Writer) error
}

func main() {
	experiment := flag.String("experiment", "all",
		"one of: all, or a name from -list")
	csvDir := flag.String("csvdir", "", "directory to write per-experiment CSV files (optional)")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
	workers := flag.Int("workers", 0, "parallel workers per experiment (0 = one per CPU, 1 = serial); results are identical at any setting")
	list := flag.Bool("list", false, "list registered experiments and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this file at exit")
	flag.Parse()

	if *list {
		for _, name := range experimentNames() {
			fmt.Println(name)
		}
		return
	}
	stop, err := prof.Start(*cpuProfile, *memProfile)
	if err == nil {
		err = run(*experiment, *csvDir, *quick, *workers)
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "openspace-bench: %v\n", err)
		os.Exit(1)
	}
}

// entry is one registered experiment.
type entry struct {
	name string
	fn   func(quick bool, workers int) (renderer, error)
}

// experimentNames lists the registry in run order, for -list and the
// unknown-experiment error.
func experimentNames() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}

// experimentTable registers every experiment by name.
var experimentTable = []entry{
	{"fig2a", func(quick bool, workers int) (renderer, error) { return experiments.Fig2a(gridSize(quick)) }},
	{"fig2b", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultFig2b()
		if quick {
			cfg.MaxSats, cfg.Step, cfg.Trials = 40, 6, 8
		}
		cfg.Workers = workers
		return experiments.Fig2b(cfg)
	}},
	{"fig2c", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultFig2c()
		if quick {
			cfg.MaxSats, cfg.Step, cfg.Trials, cfg.GridSize = 60, 6, 8, 2000
		}
		cfg.Workers = workers
		return experiments.Fig2c(cfg)
	}},
	{"capacity", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultCapacity()
		if quick {
			cfg.MaxSats, cfg.Step, cfg.Trials, cfg.Users = 40, 8, 3, 120
		}
		cfg.Workers = workers
		return experiments.Capacity(cfg)
	}},
	{"federation", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultFederation()
		if quick {
			cfg.MaxPerFleet, cfg.Step, cfg.GridSize = 12, 4, 2000
		}
		cfg.Workers = workers
		return experiments.Federation(cfg)
	}},
	{"handover", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultHandover()
		if quick {
			cfg.HorizonS = 1200
		}
		cfg.Workers = workers
		return experiments.HandoverExperiment(cfg)
	}},
	{"mac", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultMAC()
		if quick {
			cfg.MaxStations = 12
		}
		cfg.Workers = workers
		return experiments.MACExperiment(cfg)
	}},
	{"economics", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultEcon()
		if quick {
			cfg.Transfers = 40
		}
		cfg.Workers = workers
		return experiments.EconExperiment(cfg)
	}},
	{"links", func(quick bool, workers int) (renderer, error) {
		return experiments.LinksExperiment(experiments.DefaultLinkDistances())
	}},
	{"routingablation", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultRoutingAblation()
		cfg.Workers = workers
		return experiments.RoutingAblation(cfg)
	}},
	{"spectrum", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultSpectrum()
		cfg.Workers = workers
		return experiments.SpectrumExperiment(cfg)
	}},
	{"resilience", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultResilience()
		if quick {
			cfg.MaxFailures, cfg.Step, cfg.Trials = 24, 8, 4
		}
		cfg.Workers = workers
		return experiments.Resilience(cfg)
	}},
	{"dtn", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultDTN()
		if quick {
			cfg.FleetSizes = []int{4, 12}
			cfg.Trials, cfg.HorizonS, cfg.IntervalS = 3, 3*3600, 300
		}
		cfg.Workers = workers
		return experiments.DTNExperiment(cfg)
	}},
	{"incentives", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultIncentives()
		cfg.Workers = workers
		return experiments.IncentivesExperiment(cfg)
	}},
	{"criticalmass", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultCriticalMass()
		if quick {
			cfg.MaxSats, cfg.Step, cfg.Trials = 40, 8, 3
		}
		cfg.Workers = workers
		return experiments.CriticalMass(cfg)
	}},
	{"availability", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultAvailability()
		if quick {
			cfg.Intensities = []float64{0, 1, 4}
			cfg.Trials, cfg.HorizonS = 2, 3600
		}
		cfg.Workers = workers
		return experiments.Availability(cfg)
	}},
	{"capacity-scale", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultCapacityScale()
		if quick {
			// One N=1000 +Grid cell — the CI determinism/smoke workload.
			cfg.MinSats, cfg.MaxSats, cfg.Trials = 1000, 1000, 2
		}
		cfg.Workers = workers
		return experiments.Capacity(cfg)
	}},
	{"users-scale", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultUsersScale()
		if quick {
			// Two cells on a smaller +Grid — the CI determinism workload.
			cfg.Sats = 128
			cfg.UserCounts = []int{10_000, 1_000_000}
			cfg.DurationS = 300
		}
		cfg.Workers = workers
		return experiments.UsersScale(cfg)
	}},
	{"disruption-campaign", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultDisruption()
		if quick {
			// The 8-cell CI determinism matrix.
			cfg.Spec = campaign.QuickSpec()
		}
		cfg.Workers = workers
		return experiments.Disruption(cfg)
	}},
	{"availability-scale", func(quick bool, workers int) (renderer, error) {
		cfg := experiments.DefaultAvailabilityScale()
		if quick {
			// One N=1000 +Grid cell — the CI determinism/smoke workload.
			cfg.GridSats = 1000
			cfg.Intensities = []float64{0, 1}
			cfg.Trials, cfg.HorizonS = 1, 1800
		}
		cfg.Workers = workers
		return experiments.Availability(cfg)
	}},
}

func run(which, csvDir string, quick bool, workers int) error {
	ran := 0
	for _, e := range experimentTable {
		if which != "all" && which != e.name {
			continue
		}
		ran++
		fmt.Printf("=== %s ===\n", e.name)
		res, err := e.fn(quick, workers)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if err := res.Render(os.Stdout); err != nil {
			return fmt.Errorf("%s: render: %w", e.name, err)
		}
		fmt.Println()
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(csvDir, e.name+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := res.CSV(f); err != nil {
				f.Close() //lint:allow errdrop the CSV write error above is the primary failure
				return fmt.Errorf("%s: csv: %w", e.name, err)
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (try -list)", which)
	}
	// Hotspot availability is a scalar pair rather than a renderer; print
	// it alongside federation output.
	if which == "all" || which == "federation" {
		hcfg := experiments.DefaultFederation()
		hcfg.Workers = workers
		solo, fed, err := experiments.HotspotScenario(
			hcfg, geo.LatLon{Lat: 7.1, Lon: 125.6}, 500)
		if err != nil {
			return err
		}
		fmt.Printf("hotspot availability (disaster-zone user): best solo %.1f%%, federated %.1f%%\n",
			solo*100, fed*100)
	}
	return nil
}

func gridSize(quick bool) int {
	if quick {
		return 2000
	}
	return 10000
}
