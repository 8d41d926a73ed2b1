// Command perfbench is the repository benchmark. It runs one of three
// committed-experiment workloads with two workers, measures what the run
// costs the host, and checks the output against the committed results.
//
//	bash perfbench/run.sh --workload capacity-sweep --seed 0 --seconds 10 --trace 0
//
// Each workload runs a fixed number of inputs per seed. Input 0 is the
// experiment at its committed seed and must reproduce the committed
// results/*.csv rows byte for byte; input j > 0 of seed s adds
// s*(inputs-1)+j to the committed seed. Every run first checks a small
// committed slice of the same experiment, and a repetition of an input
// must reproduce that input's first bytes.
//
// With --trace 0 the run makes whole cycles, one repetition of each
// input, until --seconds have passed, and prints the end-to-end metrics,
// each the median over cycles of the cycle's mean. Averaging a cycle
// evens out how much work one seed's draws happen to make, which for
// some workloads is bimodal. With --trace 1 it alternates untraced and
// traced repetitions of one input, input 0 at seed 0 and input 1
// otherwise: the traced one drives the workload through the layers'
// public functions with a span around each call, and afterwards replays
// the calls nested inside them. It prints the per-layer metrics. The
// last line of standard output is the JSON result.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workers is the pool width of every workload, matched by GOMAXPROCS.
const workers = 2

// setupReps is how many set-ups one run makes; setup_s is the median of
// their CPU seconds.
const setupReps = 5

// result is one workload run's output and its task accounting.
type result struct {
	csv    []byte
	tasks  int // tasks or cells attempted
	failed int // tasks or cells that failed
}

// workload binds one benchmark workload to the program's entry point, the
// traced composition of the same run, and its committed results.
type workload struct {
	// inputs is how many inputs one seed stands for; at least two.
	inputs int64
	// setup checks the committed slice and returns the committed rows
	// that input 0 must reproduce.
	setup func() (golden, error)
	// run is the untraced run through the experiment's own entry point.
	run func(seed int64) (result, error)
	// traced runs the same work with spans under root; the returned
	// replay, when not nil, re-runs the nested calls as replay spans.
	traced func(seed int64, tr *tracer, root int64) (result, func() error, error)
	// counts reads the determinism-checked counts that the untraced
	// output carries.
	counts func(seed int64, csv []byte) (map[string]int64, error)
}

// newWorkload wires a workload from its configuration and entry points.
func newWorkload[C any](
	inputs int64, config func(seed int64) C, slice C, goldenOf func(C) (golden, error),
	run func(C) (result, error),
	traced func(C, *tracer, int64) (result, func() error, error),
	counts func(C, []byte) (map[string]int64, error),
) workload {
	return workload{
		inputs: inputs,
		setup: func() (golden, error) {
			g, err := goldenOf(slice)
			if err != nil {
				return golden{}, err
			}
			res, err := run(slice)
			if err == nil {
				err = g.check(res.csv)
			}
			if err != nil {
				return golden{}, fmt.Errorf("set-up slice: %w", err)
			}
			return goldenOf(config(0))
		},
		run: func(seed int64) (result, error) { return run(config(seed)) },
		traced: func(seed int64, tr *tracer, root int64) (result, func() error, error) {
			return traced(config(seed), tr, root)
		},
		counts: func(seed int64, csv []byte) (map[string]int64, error) { return counts(config(seed), csv) },
	}
}

var workloads = map[string]workload{
	"capacity-sweep": newWorkload(4, capacityConfig, capacitySetupConfig(), capacityGolden,
		runCapacity, tracedCapacity, capacityCounts),
	"fault-recovery": newWorkload(8, availabilityConfig, availabilitySetupConfig(), availabilityGolden,
		runAvailability, tracedAvailability, availabilityCounts),
	"campaign-mix": newWorkload(2, campaignSpec, campaignSetupSpec(), campaignGolden,
		runCampaign, tracedCampaign, campaignCounts),
}

func main() {
	name := flag.String("workload", "", "workload: capacity-sweep, fault-recovery or campaign-mix")
	seed := flag.Int64("seed", 0, "selects the inputs beyond the committed one")
	seconds := flag.Float64("seconds", 20, "how long the repetitions run")
	trace := flag.Int("trace", 0, "1 = per-layer metrics from traced repetitions")
	out := flag.String("out", ".bench_build", "directory for span dumps")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	b := &bench{w: w, name: *name, seed: *seed, seconds: *seconds, out: *out,
		ref: map[int64][]byte{}, refCounts: map[int64]map[string]int64{}}
	var metrics map[string]float64
	err := b.setup()
	if err == nil {
		if *trace == 1 {
			metrics, err = b.tracedPhase()
		} else {
			metrics, err = b.untracedPhase()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if b.attempted > 0 {
		fmt.Printf("fail_frac %.6g (%d of %d tasks)\n", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	}
	if err := printResult(err == nil, b.attempted, b.failed, metrics); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err != nil {
		os.Exit(1)
	}
}

// bench is one benchmark run's state.
type bench struct {
	w       workload
	name    string
	seed    int64
	seconds float64
	out     string

	setupS    []float64
	full      golden // the committed rows input 0 reproduces
	ref       map[int64][]byte
	refCounts map[int64]map[string]int64

	attempted, failed int
}

// setup runs the set-up setupReps times. It is timed in CPU seconds, like
// cpu_s: on a host whose vCPUs are stolen for minutes at a time, wall
// time measures the neighbours more than the set-up.
func (b *bench) setup() error {
	for i := 0; i < setupReps; i++ {
		cpu0 := cpuSeconds()
		full, err := b.w.setup()
		if err != nil {
			b.attempted++
			b.failed++
			return err
		}
		b.setupS = append(b.setupS, cpuSeconds()-cpu0)
		b.full = full
	}
	return nil
}

// check accepts one repetition's output for the input at seed offset
// off: the committed rows at offset 0, the input's first bytes after
// that, and the same counts throughout.
func (b *bench) check(off int64, res result, counts map[string]int64) error {
	b.attempted += res.tasks
	b.failed += res.failed
	if res.failed > 0 {
		return fmt.Errorf("%d of %d tasks failed", res.failed, res.tasks)
	}
	if ref, ok := b.ref[off]; !ok {
		b.ref[off] = res.csv
		if off == 0 {
			if err := b.full.check(res.csv); err != nil {
				return err
			}
		}
	} else if !bytes.Equal(res.csv, ref) {
		return fmt.Errorf("seed offset %d: output differs from the first repetition's", off)
	}
	if b.refCounts[off] == nil {
		b.refCounts[off] = map[string]int64{}
	}
	for k, v := range counts {
		if ref, ok := b.refCounts[off][k]; ok && ref != v {
			return fmt.Errorf("seed offset %d: count %s = %d, earlier repetition had %d", off, k, v, ref)
		}
		b.refCounts[off][k] = v
	}
	return nil
}

// offset is the seed offset of input j.
func (b *bench) offset(j int64) int64 {
	if j == 0 {
		return 0
	}
	return b.seed*(b.w.inputs-1) + j
}

// untraced runs one untraced repetition at seed offset off.
func (b *bench) untraced(off int64) (hostCost, error) {
	var res result
	cost, err := measure(func() (err error) {
		res, err = b.w.run(off)
		return err
	})
	if err != nil {
		b.attempted += res.tasks
		b.failed += res.tasks
		return cost, err
	}
	counts, err := b.w.counts(off, res.csv)
	if err == nil {
		err = b.check(off, res, counts)
	}
	fmt.Printf("untraced wall_s %.3f cpu_s %.3f alloc_mb %.1f heap_live_mb %.2f heap_peak_mb %.2f\n",
		cost.wallS, cost.cpuS, cost.allocMB, cost.heapLiveMB, cost.heapPeakMB)
	return cost, err
}

func (b *bench) untracedPhase() (map[string]float64, error) {
	var cycles [][]hostCost
	start := time.Now()
	for len(cycles) == 0 || time.Since(start).Seconds() < b.seconds {
		var cycle []hostCost
		for j := int64(0); j < b.w.inputs; j++ {
			cost, err := b.untraced(b.offset(j))
			if err != nil {
				return nil, err
			}
			cycle = append(cycle, cost)
		}
		cycles = append(cycles, cycle)
	}
	pick := func(f func(hostCost) float64) float64 {
		v := make([]float64, len(cycles))
		for i, cycle := range cycles {
			for _, c := range cycle {
				v[i] += f(c) / float64(len(cycle))
			}
		}
		return median(v)
	}
	// Wall time and the heap peak are printed but not reported: on a
	// shared host they spread more between runs than any bound allows.
	fmt.Printf("%d cycles of %d inputs: wall_s %.4g heap_peak_mb %.4g\n", len(cycles), b.w.inputs,
		pick(func(c hostCost) float64 { return c.wallS }), pick(func(c hostCost) float64 { return c.heapPeakMB }))
	return map[string]float64{
		"setup_s":      median(b.setupS),
		"cpu_s":        pick(func(c hostCost) float64 { return c.cpuS }),
		"alloc_mb":     pick(func(c hostCost) float64 { return c.allocMB }),
		"heap_live_mb": pick(func(c hostCost) float64 { return c.heapLiveMB }),
	}, nil
}

// tracedPhase alternates untraced and traced repetitions of one input
// (at least two of each), replays the nested calls of the first traced
// one, and reports per-layer medians over the traced repetitions.
func (b *bench) tracedPhase() (map[string]float64, error) {
	var plain, traced []hostCost
	var layers []map[string]float64
	var replayed map[string]float64
	off := b.offset(0)
	if b.seed != 0 {
		off = b.offset(1)
	}
	start := time.Now()
	for len(plain) < 2 || len(traced) < 2 || time.Since(start).Seconds() < b.seconds {
		if len(plain) <= len(traced) {
			cost, err := b.untraced(off)
			if err != nil {
				return nil, err
			}
			plain = append(plain, cost)
			continue
		}
		tr := newTracer()
		var res result
		var replay func() error
		cost, err := measure(func() (err error) {
			root := tr.begin("run", 0, -1)
			res, replay, err = b.w.traced(off, tr, root.ID)
			tr.end(root)
			return err
		})
		if err != nil {
			b.attempted += res.tasks
			b.failed += res.tasks
			return nil, err
		}
		counts := tr.snapshotCounts()
		if err := b.check(off, res, counts); err != nil {
			return nil, fmt.Errorf("traced repetition: %w", err)
		}
		fmt.Printf("traced wall_s %.3f cpu_s %.3f spans %d\n", cost.wallS, cost.cpuS, len(tr.spans))
		traced = append(traced, cost)
		m := layerMetrics(tr.spans, counts)
		layers = append(layers, m)
		if replayed != nil {
			continue
		}
		n := len(tr.spans)
		if replay != nil {
			if err := replay(); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
		replayed = layerMetrics(tr.spans[n:], tr.snapshotCounts())
		if err := checkReplay(replayed, counts); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(b.out, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(b.out, fmt.Sprintf("trace-%s-seed%d.json", b.name, b.seed))
		if err := tr.dump(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", path)
	}

	out := map[string]float64{}
	for _, name := range perLayer {
		var v []float64
		for _, m := range layers {
			v = append(v, m[name])
		}
		out[name] = median(v)
	}
	for _, name := range replayMetrics {
		out[name] = replayed[name]
	}
	wall := func(c hostCost) float64 { return c.wallS }
	// The collector is measured on the untraced repetitions: spans
	// allocate.
	out["runtime.gc_cycles"] = medianOf(plain, func(c hostCost) float64 { return float64(c.gcCycles) })
	out["runtime.gc_pause_s"] = medianOf(plain, func(c hostCost) float64 { return c.gcPauseS })
	out["trace.overhead_s"] = medianOf(traced, wall) - medianOf(plain, wall)
	fmt.Printf("%d untraced and %d traced repetitions\n", len(plain), len(traced))
	return out, nil
}

// checkReplay requires each replay to cover exactly the calls it stands
// for: one KShortestPaths per routed demand, one Overlay per transition.
func checkReplay(replayed map[string]float64, counts map[string]int64) error {
	if got, want := int64(replayed["routing.ksp_calls"]), counts["traffic.demands"]; got != want {
		return fmt.Errorf("replayed %d KShortestPaths calls for %d demands", got, want)
	}
	if got, want := int64(replayed["topo.overlay_calls"]), counts["faults.transitions"]; got != want {
		return fmt.Errorf("replayed %d Overlay calls for %d fault transitions", got, want)
	}
	return nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(cs []hostCost, f func(hostCost) float64) float64 {
	v := make([]float64, len(cs))
	for i, c := range cs {
		v[i] = f(c)
	}
	return median(v)
}

// unit names the unit of every metric the benchmark prints.
func unit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s") || name == "orbit.s":
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	default:
		return "count"
	}
}

func printResult(correct bool, attempted, failed int, metrics map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	if correct {
		for k, v := range metrics {
			out.Metrics[k] = value{v, unit(k)}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
