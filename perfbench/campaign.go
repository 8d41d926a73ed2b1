package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"github.com/openspace-project/openspace/internal/campaign"
	"github.com/openspace-project/openspace/internal/core"
	"github.com/openspace-project/openspace/internal/experiments"
)

// campaignSpec is the Iridium slice of the committed E17 matrix at
// intensities ×0 and ×4: 18 cells over both simulation paths.
func campaignSpec(seed int64) campaign.Spec {
	spec := campaign.DefaultSpec()
	spec.Constellations = []string{campaign.ConstellationIridium}
	spec.Intensities = []float64{0, 4}
	spec.Seed += seed
	return spec
}

// campaignSetupSpec is the one committed cell the set-up checks: the
// cheapest per-flow cell.
func campaignSetupSpec() campaign.Spec {
	spec := campaignSpec(0)
	spec.Intensities = []float64{0}
	spec.Workloads = []string{campaign.WorkloadInteractive}
	spec.Policies = []core.Policy{core.PolicyOnDemand}
	return spec
}

func campaignGolden(spec campaign.Spec) (golden, error) {
	var ids []string
	for _, c := range spec.Cells() {
		ids = append(ids, c.ID)
	}
	return loadGolden("results/disruption-campaign.csv", "cell", ids)
}

func campaignResult(out *campaign.Outcome) (result, error) {
	res := result{tasks: len(out.Cells) + len(out.Pending), failed: len(out.Failures()) + len(out.Pending)}
	var buf bytes.Buffer
	err := out.WriteCSV(&buf)
	res.csv = buf.Bytes()
	return res, err
}

// runCampaign runs the slice through the E17 experiment entry point.
func runCampaign(spec campaign.Spec) (result, error) {
	r, err := experiments.Disruption(experiments.DisruptionConfig{Spec: spec, Workers: workers})
	if err != nil {
		return result{tasks: len(spec.Cells()), failed: len(spec.Cells())}, err
	}
	return campaignResult(r.Out)
}

// campaignCounts reads the per-cell counts back from the campaign CSV.
func campaignCounts(_ campaign.Spec, csv []byte) (map[string]int64, error) {
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	col := map[string]int{}
	for i, name := range strings.Split(lines[0], ",") {
		col[name] = i
	}
	counts := map[string]int64{"exec.tasks": int64(len(lines) - 1), "campaign.cells": int64(len(lines) - 1)}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		for name, column := range map[string]string{
			"campaign.attempts": "attempts", "sim.events": "events", "core.transfers": "attempted",
		} {
			v, err := strconv.ParseInt(fields[col[column]], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("campaign csv: %s: %w", column, err)
			}
			counts[name] += v
		}
	}
	return counts, nil
}

// cellSpanName separates the two simulation paths a cell can take: the
// interactive workload runs per flow, the others through fluid
// aggregation.
func cellSpanName(c campaign.Cell) string {
	if c.Workload == campaign.WorkloadInteractive {
		return "campaign.RunCell/perflow"
	}
	return "campaign.RunCell/fluid"
}

// tracedCampaign runs the slice through campaign.Run with a CellFunc that
// wraps campaign.RunCell in a span.
func tracedCampaign(spec campaign.Spec, tr *tracer, root int64) (result, func() error, error) {
	ccfg := campaign.DefaultConfig()
	ccfg.Workers = workers
	run := tr.begin("campaign.Run", root, -1)
	out, err := campaign.Run(spec, ccfg, func(c campaign.Cell) (campaign.Metrics, error) {
		s := tr.begin(cellSpanName(c), run.ID, c.Index)
		m, err := campaign.RunCell(spec, c)
		tr.end(s)
		tr.count("campaign.attempts", 1)
		if err == nil {
			tr.count("sim.events", int64(m.Events))
			tr.count("core.transfers", m.Attempted)
		}
		return m, err
	})
	tr.end(run)
	if err != nil {
		return result{tasks: len(spec.Cells()), failed: len(spec.Cells())}, nil, err
	}
	tr.count("campaign.cells", int64(len(out.Cells)-len(out.Failures())))
	tr.count("exec.tasks", int64(len(out.Cells)))
	emit := tr.begin("experiments.emit", root, -1)
	res, err := campaignResult(out)
	tr.end(emit)
	return res, nil, err
}
