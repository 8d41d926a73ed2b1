package faults

import (
	"errors"
	"fmt"

	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
)

// RecoveryConfig sets the repair machinery's latencies and depth.
type RecoveryConfig struct {
	// Backups is the number of edge-disjoint candidate paths precomputed
	// per flow (including the primary).
	Backups int
	// DetectS is the failure-detection latency: loss-of-light / missed
	// keepalives before the repair machinery reacts.
	DetectS float64
	// FRRSwitchS is the switchover time onto a precomputed backup once the
	// failure is detected (fast reroute).
	FRRSwitchS float64
	// RecomputeS is the slow-path latency: a full shortest-path recompute
	// on the degraded topology when no precomputed candidate survives.
	RecomputeS float64
}

// DefaultRecovery models optical-terminal loss-of-light detection (50 ms),
// a 10 ms label-switch onto a precomputed backup, and a 500 ms control-
// plane recompute, with 3 disjoint candidates per flow.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{Backups: 3, DetectS: 0.05, FRRSwitchS: 0.01, RecomputeS: 0.5}
}

// Validate rejects unusable recovery parameters.
func (rc RecoveryConfig) Validate() error {
	if rc.Backups < 1 {
		return fmt.Errorf("faults: recovery needs ≥ 1 path, got %d", rc.Backups)
	}
	if rc.DetectS < 0 || rc.FRRSwitchS < 0 || rc.RecomputeS < 0 {
		return errors.New("faults: recovery latencies must be non-negative")
	}
	return nil
}

// FlowSpec names one protected flow.
type FlowSpec struct {
	ID, Src, Dst string
}

// FlowOutcome reports one flow after the run.
type FlowOutcome struct {
	ID string
	// NoPath marks flows that had no route even on the intact topology;
	// they carry no availability data.
	NoPath bool
	// OnBackup reports whether the flow ended the run off its primary path.
	OnBackup bool
	// Avail is the flow's outage ledger.
	Avail sim.FlowAvailability
}

// RunResult aggregates a RunFlows run.
type RunResult struct {
	HorizonS float64
	// FaultTransitions counts mask state changes (starts + repairs).
	FaultTransitions int
	// Flows holds one outcome per spec, in spec order.
	Flows []FlowOutcome
}

// flow is one protected flow's run state. Its candidates and adopted path
// are kept resolved (see resolve), so liveness is array reads.
type flow struct {
	spec     FlowSpec
	prot     *routing.Protected // nil when the intact topology has no path
	src, dst int32              // endpoint node indices
	cands    [][]int32          // prot.Paths, resolved
	adopted  []int32            // the last recomputed path, resolved
	active   []int32            // the path carrying the flow, resolved
	av       sim.FlowAvailability
	pending  bool // a recovery completion is scheduled
}

// resolve returns p, a path of snap, as the liveness counts it depends on:
// its node indices and, offset by the node count, its hops' CSR slots. It
// reuses r's array.
func resolve(r []int32, snap *topo.Snapshot, p routing.Path) []int32 {
	r = r[:0]
	n := int32(snap.NodeSlots())
	for i, id := range p.Nodes {
		v, ok := snap.NodeIndex(id)
		if !ok {
			panic("faults: path node " + id + " is not in the snapshot") // paths come from a searcher on snap
		}
		if i > 0 {
			j, ok := snap.EdgeIndex(r[len(r)-1], v)
			if !ok {
				panic("faults: path hop into " + id + " is not in the snapshot")
			}
			r = append(r, n+j)
		}
		r = append(r, v)
	}
	return r
}

// protect sets up one flow on sr's intact snapshot: up to k edge-disjoint
// candidates, resolved, with the cheapest active. A flow with no path even
// on the intact topology is returned unprotected.
func protect(snap *topo.Snapshot, sr *routing.Searcher, spec FlowSpec, k int) (*flow, error) {
	f := &flow{spec: spec}
	prot, err := sr.Protect(spec.Src, spec.Dst, k)
	switch {
	case errors.Is(err, routing.ErrNoPath):
		return f, nil // disconnected even when healthy: excluded from availability
	case err != nil:
		return nil, err
	}
	f.prot = prot
	f.src, _ = snap.NodeIndex(spec.Src)
	f.dst, _ = snap.NodeIndex(spec.Dst)
	f.cands = make([][]int32, len(prot.Paths))
	for i, p := range prot.Paths {
		f.cands[i] = resolve(nil, snap, p)
	}
	f.active = f.cands[0]
	return f, nil
}

// liveness is the fault state resolved onto a snapshot: outage counts per
// node index and then per CSR slot, kept in step with the mask one
// transition at a time. An element the snapshot does not show resolves to
// nothing and never takes a path down.
type liveness struct {
	down    []int32    // outages per node index, then per CSR slot
	targets [][2]int32 // per element, the counts it takes down: a node, or an ISL's two slots; -1 for none
}

func newLiveness(snap *topo.Snapshot, in *Inputs) *liveness {
	_, to := snap.CSR()
	n := int32(snap.NodeSlots())
	lv := &liveness{down: make([]int32, int(n)+len(to)), targets: make([][2]int32, 0, in.elements())}
	index := func(id string) int32 {
		if v, ok := snap.NodeIndex(id); ok {
			return v
		}
		return -1
	}
	slot := func(u, v int32) int32 {
		if u >= 0 && v >= 0 {
			if j, ok := snap.EdgeIndex(u, v); ok {
				return n + j
			}
		}
		return -1
	}
	for _, ids := range [2][]string{in.Satellites, in.Grounds} {
		for _, id := range ids {
			lv.targets = append(lv.targets, [2]int32{index(id), -1})
		}
	}
	for _, isl := range in.ISLs {
		u, v := index(isl[0]), index(isl[1])
		lv.targets = append(lv.targets, [2]int32{slot(u, v), slot(v, u)})
	}
	return lv
}

// update adds delta outages to what element e takes down.
func (lv *liveness) update(e, delta int32) {
	for _, c := range lv.targets[e] {
		if c >= 0 {
			lv.down[c] += delta
		}
	}
}

// up reports whether nothing a resolved path depends on is down.
func (lv *liveness) up(r []int32) bool {
	for _, c := range r {
		if lv.down[c] > 0 {
			return false
		}
	}
	return true
}

// scan is the per-transition pass over the flows, in flow order: act runs
// for each up flow whose active path the transition broke (died true) and
// each down flow with no recovery in flight, which a repair may have
// given a live candidate or route (died false).
//
//lint:hotpath
func (lv *liveness) scan(flows []*flow, act func(f *flow, died bool)) {
	for _, f := range flows {
		if f.prot == nil {
			continue
		}
		switch {
		case !f.av.IsDown() && !lv.up(f.active):
			act(f, true)
		case f.av.IsDown() && !f.pending:
			act(f, false)
		}
	}
}

// RunFlows drives the protected flows through the fault timeline on a
// discrete-event engine and reports per-flow availability. Each flow gets
// rc.Backups edge-disjoint candidate paths up front; when a fault breaks a
// flow's active path the flow goes down, and after DetectS the repair
// machinery either fast-reroutes onto the first surviving candidate
// (FRRSwitchS) or recomputes a route on the degraded snapshot
// (RecomputeS). A flow with no live route stays down until a repair event
// makes one available — that outage is the availability cost E15 measures.
//
// Fault targets are resolved once per run (element → node index and both
// CSR slots) and paths once each (→ node indices and hop slots), so the
// liveness checks at every transition read arrays only.
func RunFlows(snap *topo.Snapshot, specs []FlowSpec, tl *Timeline, rc RecoveryConfig, cost routing.CostFunc) (*RunResult, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if snap == nil || tl == nil {
		return nil, errors.New("faults: RunFlows needs a snapshot and a timeline")
	}
	// One searcher protects every flow on the intact snapshot, then serves
	// the recomputes with the current fault mask applied — exactly the
	// overlay's routes, without building an overlay per attempt. The mask
	// is re-applied only when a transition changed it since the last
	// recompute.
	sr := routing.NewSearcher(snap, cost)
	res := &RunResult{HorizonS: tl.HorizonS}
	flows := make([]*flow, 0, len(specs))
	for _, spec := range specs {
		f, err := protect(snap, sr, spec, rc.Backups)
		if err != nil {
			return nil, err
		}
		flows = append(flows, f)
	}

	engine := sim.NewEngine()
	mask := NewMask()
	lv := newLiveness(snap, &tl.Inputs)
	masked := -1 // the transition count the searcher's mask reflects

	// attemptRecovery attempts repair for a down flow and schedules its completion;
	// complete re-validates (the chosen path may have died while the
	// switchover was in flight) and either restores the flow or retries.
	var attemptRecovery func(f *flow, e *sim.Engine)
	complete := func(f *flow, viaBackup bool) func(*sim.Engine) {
		return func(e *sim.Engine) {
			f.pending = false
			if !f.av.IsDown() {
				return
			}
			if !lv.up(f.active) {
				attemptRecovery(f, e)
				return
			}
			f.av.Up(e.Now(), viaBackup)
		}
	}
	attemptRecovery = func(f *flow, e *sim.Engine) {
		if f.pending {
			return
		}
		if lv.down[f.src] > 0 || lv.down[f.dst] > 0 {
			// Every candidate and every route has both endpoints; the
			// next repair event retries.
			return
		}
		if i, ok := f.prot.Reroute(func(i int) bool { return lv.up(f.cands[i]) }); ok {
			f.active = f.cands[i]
			f.pending = true
			if err := e.After(rc.DetectS+rc.FRRSwitchS, complete(f, true)); err != nil {
				panic(err) // delays are validated non-negative
			}
			return
		}
		if masked != res.FaultTransitions {
			sr.Mask(mask)
			masked = res.FaultTransitions
		}
		p, err := sr.ShortestPath(f.spec.Src, f.spec.Dst)
		if err != nil {
			return // no live route; the next repair event retries
		}
		f.prot.Adopt(p)
		f.adopted = resolve(f.adopted, snap, p)
		f.active = f.adopted
		f.pending = true
		if err := e.After(rc.DetectS+rc.RecomputeS, complete(f, false)); err != nil {
			panic(err)
		}
	}

	act := func(f *flow, died bool) {
		if died {
			f.av.Down(engine.Now())
		}
		attemptRecovery(f, engine)
	}
	onChange := func(_ *sim.Engine, ev Event, down bool) {
		res.FaultTransitions++
		delta := int32(-1)
		if down {
			delta = 1
		}
		lv.update(tl.Inputs.element(ev), delta)
		lv.scan(flows, act)
	}
	if err := tl.Drive(engine, mask, onChange); err != nil {
		return nil, err
	}
	engine.Run(tl.HorizonS)

	for _, f := range flows {
		out := FlowOutcome{ID: f.spec.ID, NoPath: f.prot == nil}
		if f.prot != nil {
			f.av.Finish(tl.HorizonS)
			out.Avail = f.av
			out.OnBackup = f.prot.OnBackup()
		}
		res.Flows = append(res.Flows, out)
	}
	return res, nil
}
