package routing

import (
	"errors"
	"testing"

	"github.com/openspace-project/openspace/internal/topo"
)

func TestEdgeLoadAccounting(t *testing.T) {
	s := testSnapshot(t, 1, false)
	l := NewEdgeLoad(s)
	p, err := ShortestPath(s, "u-nairobi", "gs-seattle", LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	if u := l.Utilization(p.Nodes[0], p.Nodes[1]); u != 0 {
		t.Errorf("fresh tracker utilization = %v", u)
	}
	first, _ := s.Edge(p.Nodes[0], p.Nodes[1])
	l.Commit(p, first.CapacityBps/2)
	if u := l.Utilization(p.Nodes[0], p.Nodes[1]); u != 0.5 {
		t.Errorf("after half commit, utilization = %v, want 0.5", u)
	}
	// Reverse direction unaffected.
	if u := l.Utilization(p.Nodes[1], p.Nodes[0]); u != 0 {
		t.Errorf("reverse direction loaded: %v", u)
	}
	// Unknown edge reports zero.
	if l.Utilization("x", "y") != 0 {
		t.Error("unknown edge should report zero")
	}
}

func TestOnDemandAdmitAndSpill(t *testing.T) {
	s := testSnapshot(t, 1, false)
	r := NewOnDemandRouter(s, DefaultQoS())

	first, err := r.Admit("u-nairobi", "gs-seattle", 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// Load the first path's bottleneck to near saturation; the next flow
	// must route around it.
	r.Load().Commit(first, first.MinCapacityBps*0.95)
	second, err := r.Admit("u-nairobi", "gs-seattle", first.MinCapacityBps*0.5)
	if err != nil {
		t.Fatalf("spill flow rejected: %v", err)
	}
	same := len(first.Nodes) == len(second.Nodes)
	if same {
		for i := range first.Nodes {
			if first.Nodes[i] != second.Nodes[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("congested path reused for a flow that cannot fit")
	}
}

func TestOnDemandRejectsImpossible(t *testing.T) {
	s := testSnapshot(t, 1, false)
	r := NewOnDemandRouter(s, DefaultQoS())
	if _, err := r.Admit("u-nairobi", "gs-seattle", 0); err == nil {
		t.Error("zero rate should error")
	}
	// A flow bigger than any access link cannot be admitted.
	if _, err := r.Admit("u-nairobi", "gs-seattle", 1e15); !errors.Is(err, ErrNoPath) {
		t.Errorf("oversized flow: %v", err)
	}
}

func TestOnDemandSaturates(t *testing.T) {
	// Size flows to the network's bottleneck link so a single flow fits but
	// a few of them saturate the user's exits. The probe is measured on a
	// router of its own, so it loads nothing the admissions below see.
	s := testSnapshot(t, 1, false)
	probe, err := NewOnDemandRouter(s, DefaultQoS()).Admit("u-nairobi", "gs-seattle", 1)
	if err != nil {
		t.Fatal(err)
	}
	r := NewOnDemandRouter(s, DefaultQoS())
	rate := probe.MinCapacityBps * 0.6
	admitted := 0
	for ; admitted < 100; admitted++ {
		if _, err := r.Admit("u-nairobi", "gs-seattle", rate); err != nil {
			break
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if _, err := r.Admit("u-nairobi", "gs-seattle", rate); err == nil {
		t.Fatal("expected saturation rejection")
	}
}

func TestQoSLoadPenaltySaturatedUnusable(t *testing.T) {
	s := testSnapshot(t, 1, false)
	load := NewEdgeLoad(s)
	pol := DefaultQoS()
	pol.Load = load
	cost := pol.Cost()
	// Saturate one edge fully; its cost function must mark it unusable.
	var e topo.Edge
	for _, id := range s.Nodes() {
		if es := neighbors(s, id); len(es) > 0 {
			e = es[0]
			break
		}
	}
	p := Path{Nodes: []string{e.From, e.To}}
	load.Commit(p, e.CapacityBps*2)
	if _, usable := cost(e, s); usable {
		t.Error("saturated edge should be unusable")
	}
}
