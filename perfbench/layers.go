package main

import (
	"sort"
	"strings"
	"time"
)

// perLayer lists the per-layer metrics taken from each traced
// repetition; the run reports their medians. Every _s metric is a sum of
// span self times in worker-seconds, so with other_s they add up to the
// traced run's serial time plus its busy worker time.
var perLayer = []string{
	"orbit.s",
	"topo.build_s", "topo.build_calls",
	"traffic.demand_s", "traffic.demands",
	"traffic.maxmin_s", "traffic.maxmin_calls",
	"traffic.maxflow_s",
	"faults.generate_s", "faults.runflows_s", "faults.transitions",
	"campaign.fluid_cell_s", "campaign.perflow_cell_s", "campaign.overhead_s",
	"campaign.cells", "campaign.attempts",
	"sim.events", "core.transfers",
	"exec.tasks", "exec.wall_s", "exec.busy_frac", "exec.tail_s",
	"exec.task_p50_ms", "exec.task_p90_ms", "exec.task_max_ms",
	"experiments.emit_s", "other_s",
}

// replayMetrics come from the one replay of the nested calls.
var replayMetrics = []string{
	"routing.ksp_replay_s", "routing.ksp_calls",
	"topo.overlay_replay_s", "topo.overlay_calls",
}

// selfMetric maps a span name to the metric its self time adds to.
var selfMetric = map[string]string{
	"run":                       "other_s",
	"exec.Map":                  "other_s",
	"exec.task":                 "other_s",
	"orbit.RandomCircular":      "orbit.s",
	"orbit.Build":               "orbit.s",
	"topo.Build":                "topo.build_s",
	"traffic.BuildDemandMatrix": "traffic.demand_s",
	"traffic.MaxMinFair":        "traffic.maxmin_s",
	"traffic.MaxFlow":           "traffic.maxflow_s",
	"faults.Generate":           "faults.generate_s",
	"faults.RunFlows":           "faults.runflows_s",
	"campaign.Run":              "campaign.overhead_s",
	"campaign.RunCell/fluid":    "campaign.fluid_cell_s",
	"campaign.RunCell/perflow":  "campaign.perflow_cell_s",
	"experiments.emit":          "experiments.emit_s",
	"routing.KShortestPaths":    "routing.ksp_replay_s",
	"topo.Overlay":              "topo.overlay_replay_s",
}

// callMetric maps a span name to the metric that counts its calls.
var callMetric = map[string]string{
	"topo.Build":         "topo.build_calls",
	"traffic.MaxMinFair": "traffic.maxmin_calls",
}

// isTask and isPool pick out the exec pool's task spans and the span of
// the call that ran the pool.
func isTask(name string) bool {
	return name == "exec.task" || strings.HasPrefix(name, "campaign.RunCell/")
}

func isPool(name string) bool { return name == "exec.Map" || name == "campaign.Run" }

// minP90Tasks is the fewest task samples that leave ten beyond the 90th
// percentile; below it exec.task_p90_ms is reported as 0.
const minP90Tasks = 100

// layerMetrics attributes one traced run's spans to layers and derives
// the exec pool's metrics from its task spans. counts are copied in.
func layerMetrics(spans []span, counts map[string]int64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range counts {
		m[k] = float64(v)
	}
	self := selfTimes(spans)
	var tasks []float64
	var ends []time.Duration
	var busy, pool time.Duration
	for _, s := range spans {
		if name, ok := selfMetric[s.Name]; ok {
			m[name] += self[s.ID].Seconds()
		}
		if name, ok := callMetric[s.Name]; ok {
			m[name]++
		}
		switch {
		case isTask(s.Name):
			tasks = append(tasks, float64(s.dur())/float64(time.Millisecond))
			ends = append(ends, s.End)
			busy += s.dur()
		case isPool(s.Name):
			pool += s.dur()
		}
	}
	m["exec.wall_s"] = pool.Seconds()
	if pool > 0 {
		m["exec.busy_frac"] = float64(busy) / float64(workers*pool)
	}
	if n := len(ends); n >= workers {
		// After the workers-th last task ends the pool runs below full
		// width: no queued task is left for the idle worker.
		sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
		m["exec.tail_s"] = (ends[n-1] - ends[n-workers]).Seconds()
	}
	if len(tasks) > 0 {
		sort.Float64s(tasks)
		m["exec.task_p50_ms"] = median(tasks)
		m["exec.task_max_ms"] = tasks[len(tasks)-1]
		if len(tasks) >= minP90Tasks {
			m["exec.task_p90_ms"] = tasks[(len(tasks)*9+9)/10-1]
		}
	}
	return m
}
