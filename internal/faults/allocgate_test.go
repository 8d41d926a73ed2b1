package faults

import (
	"os"
	"testing"

	"github.com/openspace-project/openspace/internal/routing"
)

// TestAllocGatePathLive pins the //lint:hotpath contract on
// liveness.scan, RunFlows' per-transition pass: testing every flow's
// active path against the resolved fault counts reads arrays only.
func TestAllocGatePathLive(t *testing.T) {
	if os.Getenv("OPENSPACE_ALLOC_GATE") == "" {
		t.Skip("set OPENSPACE_ALLOC_GATE=1 to run the zero-allocation gates")
	}
	snap := oracleSnapshot(t, 0)
	in := InputsFromSnapshot(snap)
	sr := routing.NewSearcher(snap, routing.LatencyCost(0))
	var flows []*flow
	for _, spec := range []FlowSpec{{Src: "u0", Dst: "g0"}, {Src: "u1", Dst: "g1"}, {Src: "u0", Dst: "g1"}} {
		f, err := protect(snap, sr, spec, 3)
		if err != nil || f.prot == nil {
			t.Fatalf("%s → %s: no protected flow (%v)", spec.Src, spec.Dst, err)
		}
		flows = append(flows, f)
	}
	lv := newLiveness(snap, &in)
	// Down the first flow's second node, which cannot be an endpoint.
	down, _ := snap.NodeIndex(flows[0].prot.Paths[0].Nodes[1])
	lv.down[down]++
	died := 0
	act := func(_ *flow, d bool) {
		if d {
			died++
		}
	}
	run := func() { lv.scan(flows, act) }
	run()
	if died == 0 {
		t.Fatal("no flow's active path died; the gate would be vacuous")
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("per-transition liveness scan allocates %.2f per run, want 0", avg)
	}
}
