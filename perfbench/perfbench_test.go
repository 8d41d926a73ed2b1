package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/openspace-project/openspace/internal/campaign"
	"github.com/openspace-project/openspace/internal/core"
)

// The benchmark reads results/ relative to the repository root, where
// run.sh starts it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tracedRun runs a traced composition and its replay on a fresh tracer.
func tracedRun(t *testing.T, fn func(*tracer, int64) (result, func() error, error)) (result, map[string]float64) {
	t.Helper()
	tr := newTracer()
	root := tr.begin("run", 0, -1)
	res, replay, err := fn(tr, root.ID)
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.snapshotCounts()
	m := layerMetrics(tr.spans, counts)
	if replay != nil {
		n := len(tr.spans)
		if err := replay(); err != nil {
			t.Fatal(err)
		}
		for k, v := range layerMetrics(tr.spans[n:], tr.snapshotCounts()) {
			if strings.Contains(k, "replay") || strings.HasSuffix(k, "ksp_calls") || strings.HasSuffix(k, "overlay_calls") {
				m[k] = v
			}
		}
	}
	if err := checkReplay(m, counts); err != nil {
		t.Fatal(err)
	}
	return res, m
}

func TestTracedCapacityReproducesExperiment(t *testing.T) {
	cfg := capacityConfig(3)
	cfg.MinSats, cfg.MaxSats, cfg.Step = 12, 24, 12
	cfg.Trials = 4
	cfg.Users = 60
	want, err := runCapacity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, m := tracedRun(t, func(tr *tracer, root int64) (result, func() error, error) {
		return tracedCapacity(cfg, tr, root)
	})
	if !bytes.Equal(got.csv, want.csv) {
		t.Fatalf("traced CSV differs:\n%s\nwant:\n%s", got.csv, want.csv)
	}
	if m["exec.tasks"] != 8 || m["traffic.maxmin_calls"] == 0 || m["routing.ksp_calls"] != m["traffic.demands"] {
		t.Fatalf("counts: tasks %v maxmin %v ksp %v demands %v",
			m["exec.tasks"], m["traffic.maxmin_calls"], m["routing.ksp_calls"], m["traffic.demands"])
	}
}

func TestTracedAvailabilityReproducesExperiment(t *testing.T) {
	cfg := availabilityConfig(5)
	cfg.Intensities = []float64{0, 2}
	cfg.Trials = 2
	cfg.HorizonS = 1800
	want, err := runAvailability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, m := tracedRun(t, func(tr *tracer, root int64) (result, func() error, error) {
		return tracedAvailability(cfg, tr, root)
	})
	if !bytes.Equal(got.csv, want.csv) {
		t.Fatalf("traced CSV differs:\n%s\nwant:\n%s", got.csv, want.csv)
	}
	counts, err := availabilityCounts(cfg, want.csv)
	if err != nil {
		t.Fatal(err)
	}
	if float64(counts["faults.transitions"]) != m["faults.transitions"] || m["topo.overlay_calls"] == 0 {
		t.Fatalf("transitions: csv %d traced %v overlays %v",
			counts["faults.transitions"], m["faults.transitions"], m["topo.overlay_calls"])
	}
}

func TestTracedCampaignReproducesExperiment(t *testing.T) {
	spec := campaignSpec(1)
	spec.Intensities = []float64{4}
	spec.Workloads = []string{campaign.WorkloadInteractive, campaign.WorkloadIoT}
	spec.Policies = []core.Policy{core.PolicyDTN}
	spec.DurationS = 300
	want, err := runCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, m := tracedRun(t, func(tr *tracer, root int64) (result, func() error, error) {
		return tracedCampaign(spec, tr, root)
	})
	if !bytes.Equal(got.csv, want.csv) {
		t.Fatalf("traced CSV differs:\n%s\nwant:\n%s", got.csv, want.csv)
	}
	counts, err := campaignCounts(spec, want.csv)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range counts {
		if float64(v) != m[k] {
			t.Errorf("%s: csv %d, traced %v", k, v, m[k])
		}
	}
	if m["campaign.perflow_cell_s"] <= 0 || m["campaign.fluid_cell_s"] <= 0 {
		t.Errorf("cell spans: perflow %v fluid %v", m["campaign.perflow_cell_s"], m["campaign.fluid_cell_s"])
	}
}

func TestInputOffsets(t *testing.T) {
	seen := map[int64]string{}
	for seed := int64(0); seed < 4; seed++ {
		b := &bench{seed: seed, w: workload{inputs: 3}}
		if b.offset(0) != 0 {
			t.Fatalf("seed %d: input 0 at offset %d, want the committed seed", seed, b.offset(0))
		}
		for j := int64(1); j < 3; j++ {
			off := b.offset(j)
			if prev, ok := seen[off]; ok || off == 0 {
				t.Fatalf("seed %d input %d reuses offset %d of %s", seed, j, off, prev)
			}
			seen[off] = fmt.Sprintf("seed %d input %d", seed, j)
		}
	}
}

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestSelfTimesOverlappingWorkers(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: ms(0), End: ms(100)},
		// Two workers' tasks overlap during [30, 40).
		{ID: 2, Parent: 1, Name: "exec.task", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "exec.task", Start: ms(30), End: ms(70)},
		{ID: 4, Parent: 2, Name: "traffic.MaxMinFair", Start: ms(15), End: ms(20)},
		{ID: 5, Parent: 2, Name: "traffic.MaxFlow", Start: ms(18), End: ms(25)},
		// A replay runs after the task; it stays out of every self time.
		{ID: 6, Parent: 2, Name: "routing.KShortestPaths", Start: ms(80), End: ms(90), Replay: true},
		{ID: 7, Parent: 1, Name: "routing.KShortestPaths", Start: ms(50), End: ms(60), Replay: true},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: ms(40), 2: ms(20), 3: ms(40), 4: ms(5), 5: ms(7), 6: ms(10), 7: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	m := layerMetrics(spans, nil)
	if got := m["other_s"]; !near(got, 0.100) {
		t.Errorf("other_s %v, want 0.100 (run 40 + tasks 20+40)", got)
	}
	if got := m["routing.ksp_replay_s"]; !near(got, 0.020) {
		t.Errorf("ksp replay %v, want 0.020", got)
	}
}

func TestExecMetricsFromTaskSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "exec.Map", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "exec.task", Start: ms(0), End: ms(60)},
		{ID: 3, Parent: 1, Name: "exec.task", Start: ms(0), End: ms(30)},
		{ID: 4, Parent: 1, Name: "exec.task", Start: ms(30), End: ms(100)},
	}
	m := layerMetrics(spans, nil)
	if !near(m["exec.busy_frac"], 160.0/200) || !near(m["exec.tail_s"], 0.040) ||
		!near(m["exec.task_p50_ms"], 60) || !near(m["exec.task_max_ms"], 70) || m["exec.task_p90_ms"] != 0 {
		t.Fatalf("exec metrics %v", m)
	}
	// 100 tasks of 1..100 ms leave ten samples beyond the 90th.
	spans = spans[:1]
	for i := 0; i < minP90Tasks; i++ {
		spans = append(spans, span{ID: int64(10 + i), Parent: 1, Name: "exec.task", End: ms(i + 1)})
	}
	if got := layerMetrics(spans, nil)["exec.task_p90_ms"]; !near(got, 90) {
		t.Fatalf("p90 = %v, want 90", got)
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestGoldenRowsByKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.csv")
	if err := os.WriteFile(path, []byte("n,v\n4,a\n8,b\n12,c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden(path, "n", []string{"12", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if g.header != "n,v" || strings.Join(g.rows, ";") != "4,a;12,c" {
		t.Fatalf("golden %q %q", g.header, g.rows)
	}
	if err := g.check([]byte("n,v\n4,a\n12,c\n")); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"n,v\n4,a\n12,x\n", "n,w\n4,a\n12,c\n", "n,v\n4,a\n", "n,v\n4,a\n12,c\n16,d\n"} {
		if g.check([]byte(bad)) == nil {
			t.Errorf("check accepted %q", bad)
		}
	}
	if _, err := loadGolden(path, "n", []string{"16"}); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := loadGolden(path, "m", []string{"4"}); err == nil {
		t.Error("missing key column accepted")
	}
	if err := os.WriteFile(path, []byte("n,v\n4,a\n4,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadGolden(path, "n", []string{"4"}); err == nil {
		t.Error("duplicated key accepted")
	}
}

// The committed slices the benchmark checks must exist in results/ with
// the headers the experiments write.
func TestCommittedSlices(t *testing.T) {
	for _, tc := range []struct {
		golden func() (golden, error)
		rows   int
		header string
	}{
		{func() (golden, error) { return capacityGolden(capacityConfig(0)) }, 2, "satellites,"},
		{func() (golden, error) { return capacityGolden(capacitySetupConfig()) }, 3, "satellites,"},
		{func() (golden, error) { return availabilityGolden(availabilityConfig(0)) }, 6, "intensity,"},
		{func() (golden, error) { return availabilityGolden(availabilitySetupConfig()) }, 3, "intensity,"},
		{func() (golden, error) { return campaignGolden(campaignSpec(0)) }, 18, "cell,"},
		{func() (golden, error) { return campaignGolden(campaignSetupSpec()) }, 1, "cell,"},
	} {
		g, err := tc.golden()
		if err != nil {
			t.Fatal(err)
		}
		if len(g.rows) != tc.rows || !strings.HasPrefix(g.header, tc.header) {
			t.Errorf("%s: %d rows, header %q", g.path, len(g.rows), g.header)
		}
	}
}
