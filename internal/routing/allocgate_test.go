package routing

import (
	"os"
	"reflect"
	"testing"

	"github.com/openspace-project/openspace/internal/topo"
)

// allocGate skips unless the zero-allocation gates are explicitly enabled
// (OPENSPACE_ALLOC_GATE=1, as CI's alloc-gate step does).
func allocGate(t *testing.T) {
	t.Helper()
	if os.Getenv("OPENSPACE_ALLOC_GATE") == "" {
		t.Skip("set OPENSPACE_ALLOC_GATE=1 to run the zero-allocation gates")
	}
}

// TestAllocGateDijkstra pins the //lint:hotpath contract on
// Searcher.search: a warm searcher re-solving a shortest path touches only
// its preallocated labels, heap and ban stamps.
func TestAllocGateDijkstra(t *testing.T) {
	allocGate(t)
	s := testSnapshot(t, 1, false)
	sr := NewSearcher(s, LatencyCost(0))
	src, _ := s.NodeIndex("u-nairobi")
	dst, _ := s.NodeIndex("gs-seattle")
	run := func() {
		sr.banGen++
		sr.search(&sr.spur, src, dst)
		if !sr.spur.has(dst) {
			t.Fatal("re-solve lost the path")
		}
	}
	run() // warm: sizes the heap
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("warm Dijkstra re-solve allocates %.2f per run, want 0", avg)
	}
}

// TestAllocGateYenSpur pins the same contract on Yen's inner step: banning
// a root's nodes and the accepted paths' next hops, searching the spur,
// and joining the candidate into the arena must reuse the searcher's
// scratch.
func TestAllocGateYenSpur(t *testing.T) {
	allocGate(t)
	s := testSnapshot(t, 1, false)
	sr := NewSearcher(s, LatencyCost(0))
	src, _ := s.NodeIndex("u-nairobi")
	dst, _ := s.NodeIndex("gs-seattle")
	sr.grow(src)
	if sr.yen(src, dst, 4); len(sr.accepted) < 2 {
		t.Fatal("fixture has fewer than two loopless paths; gate would be vacuous")
	}
	first := sr.accepted[0]
	spur := sr.to[sr.arena[first.at]] // the first path's second node
	mark := len(sr.arena)
	run := func() {
		sr.arena, sr.cands = sr.arena[:mark], sr.cands[:0]
		sr.banGen++
		sr.banEdge[sr.arena[first.at+1]] = sr.banGen
		sr.banNode[src] = sr.banGen
		sr.search(&sr.spur, spur, dst)
		if sr.spur.has(dst) {
			sr.candidate(first.at, 1, dst)
		}
	}
	run() // warm: sizes the arena and candidate list
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("Yen spur re-solve allocates %.2f per run, want 0", avg)
	}
}

// TestAllocGateSearcherMask pins the masked recompute's set-up: a warm
// searcher re-applying a non-empty mask resolves each down element in
// place, with its walk callbacks bound once.
func TestAllocGateSearcherMask(t *testing.T) {
	allocGate(t)
	s := testSnapshot(t, 1, false)
	sr := NewSearcher(s, LatencyCost(0))
	ids := s.Nodes()
	var hop topo.Edge
	s.Neighbors(ids[0], func(e topo.Edge) { hop = e })
	var m topo.Mask = maskSet{nodes: map[string]bool{ids[1]: true, ids[2]: true},
		edges: map[[2]string]bool{edgePair(hop.From, hop.To): true}} // boxed once, as a *faults.Mask needs no boxing
	sr.Mask(m) // warm: saves the unmasked weights, binds the callbacks
	masked := append([]float64(nil), sr.w...)
	if reflect.DeepEqual(masked, sr.base) {
		t.Fatal("fixture mask hides no edge; gate would be vacuous")
	}
	if avg := testing.AllocsPerRun(100, func() { sr.Mask(m) }); avg != 0 {
		t.Fatalf("Searcher.Mask allocates %.2f per call, want 0", avg)
	}
	if !reflect.DeepEqual(sr.w, masked) {
		t.Fatal("re-applying the same mask changed the weights")
	}
}
