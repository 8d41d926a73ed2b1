package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/openspace-project/openspace/internal/topo"
)

// sharedBottleneck is two commodities squeezing through one 10-unit link.
func sharedBottleneck(t *testing.T) *Network {
	t.Helper()
	return NewNetwork(grid(t,
		[3]interface{}{"a", "m", 100}, [3]interface{}{"b", "m", 100},
		[3]interface{}{"m", "n", 10},
		[3]interface{}{"n", "c", 100}, [3]interface{}{"n", "d", 100},
	))
}

func TestMaxMinFairEqualSplit(t *testing.T) {
	n := sharedBottleneck(t)
	alloc, err := MaxMinFair(n, []Demand{
		{Src: "a", Dst: "c", OfferedBps: 8},
		{Src: "b", Dst: "d", OfferedBps: 8},
	}, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range alloc.Demands {
		if math.Abs(d.RateBps-5) > 1e-6 {
			t.Errorf("demand %d rate = %v, want 5 (equal split of the 10-unit bottleneck)", i, d.RateBps)
		}
		if d.Bottleneck != (LinkID{"m", "n"}) {
			t.Errorf("demand %d bottleneck = %v, want m→n", i, d.Bottleneck)
		}
	}
	if u := alloc.Utilization("m", "n"); math.Abs(u-1) > 1e-6 {
		t.Errorf("bottleneck utilisation = %v, want 1", u)
	}
	if j := alloc.JainIndex(); math.Abs(j-1) > 1e-9 {
		t.Errorf("Jain index = %v, want 1 for symmetric split", j)
	}
}

func TestMaxMinFairUnevenOffers(t *testing.T) {
	// The small ask is satisfied at 2; the big one takes the remaining 8 —
	// the defining water-filling outcome.
	n := sharedBottleneck(t)
	alloc, err := MaxMinFair(n, []Demand{
		{Src: "a", Dst: "c", OfferedBps: 2},
		{Src: "b", Dst: "d", OfferedBps: 20},
	}, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := alloc.Demands[0]; !d.Satisfied() || math.Abs(d.RateBps-2) > 1e-6 {
		t.Errorf("small demand got %v, want its full 2", d.RateBps)
	}
	if d := alloc.Demands[1]; math.Abs(d.RateBps-8) > 1e-6 {
		t.Errorf("big demand got %v, want the residual 8", d.RateBps)
	}
	if got := alloc.CarriedBps(); math.Abs(got-10) > 1e-6 {
		t.Errorf("carried = %v, want 10", got)
	}
	if frac := alloc.SatisfiedFraction(); math.Abs(frac-10.0/22) > 1e-6 {
		t.Errorf("satisfied fraction = %v, want 10/22", frac)
	}
}

func TestMaxMinFairWidestOfK(t *testing.T) {
	// The shortest path is a 1-unit trickle; a slightly longer detour has
	// 100 units. KPaths=1 is stuck with the trickle, KPaths=2 finds the
	// detour.
	s, err := topo.NewSnapshot(0, []topo.Node{
		{ID: "s", Kind: topo.KindGroundStation},
		{ID: "m", Kind: topo.KindSatellite},
		{ID: "t", Kind: topo.KindGroundStation},
	}, []topo.Edge{
		{From: "s", To: "t", Kind: topo.LinkISLRF, DelayS: 0.001, CapacityBps: 1},
		{From: "s", To: "m", Kind: topo.LinkGround, DelayS: 0.002, CapacityBps: 100},
		{From: "m", To: "t", Kind: topo.LinkGround, DelayS: 0.002, CapacityBps: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(s)
	demands := []Demand{{Src: "s", Dst: "t", OfferedBps: 50}}
	narrow, err := MaxMinFair(n, demands, AllocConfig{KPaths: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := narrow.Demands[0].RateBps; math.Abs(got-1) > 1e-6 {
		t.Errorf("k=1 rate = %v, want 1 (stuck on the direct trickle)", got)
	}
	wide, err := MaxMinFair(n, demands, AllocConfig{KPaths: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := wide.Demands[0].RateBps; math.Abs(got-50) > 1e-6 {
		t.Errorf("k=2 rate = %v, want the full 50 over the wide detour", got)
	}
}

func TestMaxMinFairUnroutableDemand(t *testing.T) {
	n := NewNetwork(grid(t, [3]interface{}{"a", "b", 10}))
	alloc, err := MaxMinFair(n, []Demand{
		{Src: "b", Dst: "a", OfferedBps: 5}, // no reverse edge
		{Src: "a", Dst: "b", OfferedBps: 5},
	}, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := alloc.Demands[0]; d.Path != nil || d.RateBps != 0 {
		t.Errorf("unroutable demand allocated %v over %v", d.RateBps, d.Path)
	}
	if d := alloc.Demands[1]; math.Abs(d.RateBps-5) > 1e-6 {
		t.Errorf("routable demand got %v, want 5", d.RateBps)
	}
}

func TestMaxMinFairAccessLinksExcluded(t *testing.T) {
	// The only route via the user terminal is not transit-eligible under
	// the default cost.
	s, err := topo.NewSnapshot(0, []topo.Node{
		{ID: "g1", Kind: topo.KindGroundStation},
		{ID: "u", Kind: topo.KindUser},
		{ID: "g2", Kind: topo.KindGroundStation},
	}, []topo.Edge{
		{From: "g1", To: "u", Kind: topo.LinkAccess, DelayS: 0.001, CapacityBps: 100},
		{From: "u", To: "g2", Kind: topo.LinkAccess, DelayS: 0.001, CapacityBps: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := MaxMinFair(NewNetwork(s), []Demand{{Src: "g1", Dst: "g2", OfferedBps: 5}}, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := alloc.Demands[0]; d.Path != nil {
		t.Errorf("transit allocated through a user terminal: %v", d.Path)
	}
}

func TestMaxMinFairErrors(t *testing.T) {
	n := NewNetwork(grid(t, [3]interface{}{"a", "b", 10}))
	if _, err := MaxMinFair(n, []Demand{{Src: "a", Dst: "z", OfferedBps: 1}}, AllocConfig{}); err == nil {
		t.Error("unknown node should fail")
	}
	if _, err := MaxMinFair(n, []Demand{{Src: "a", Dst: "b", OfferedBps: -1}}, AllocConfig{}); err == nil {
		t.Error("negative offered load should fail")
	}
}

// checkMaxMinProperty asserts the defining property of max-min fairness on
// fixed paths: every demand is either fully satisfied, unroutable, or
// frozen behind a saturated link on which no co-located demand holds a
// higher rate (so raising it would necessarily lower an equal-or-smaller
// rate).
func checkMaxMinProperty(t *testing.T, alloc *Allocation, n *Network) bool {
	t.Helper()
	const tol = 1e-6
	for i := range alloc.Demands {
		d := &alloc.Demands[i]
		if d.Path == nil || d.Satisfied() {
			continue
		}
		l := d.Bottleneck
		if l == (LinkID{}) {
			t.Logf("demand %d (%s→%s) unsatisfied at %v with no bottleneck", i, d.Src, d.Dst, d.RateBps)
			return false
		}
		if u := alloc.Utilization(l.From, l.To); u < 1-tol {
			t.Logf("demand %d bottleneck %v not saturated (util %v)", i, l, u)
			return false
		}
		for j := range alloc.Demands {
			o := &alloc.Demands[j]
			if j == i || o.Path == nil {
				continue
			}
			crosses := false
			for h := 0; h+1 < len(o.Path); h++ {
				if (LinkID{o.Path[h], o.Path[h+1]}) == l {
					crosses = true
					break
				}
			}
			if crosses && o.RateBps > d.RateBps+tol*(1+d.RateBps) {
				t.Logf("demand %d rate %v exceeds demand %d rate %v on shared bottleneck %v",
					j, o.RateBps, i, d.RateBps, l)
				return false
			}
		}
	}
	return true
}

// TestMaxMinFairProperty drives the allocator over random networks and
// demand sets with testing/quick, checking feasibility (no link above
// capacity, no rate above its offer) and the max-min property.
func TestMaxMinFairProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng)
		ids := n.Snap.Nodes()
		var demands []Demand
		for d := 0; d < 2+rng.Intn(5); d++ {
			src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if src == dst {
				continue
			}
			demands = append(demands, Demand{Src: src, Dst: dst, OfferedBps: float64(1 + rng.Intn(50))})
		}
		alloc, err := MaxMinFair(n, demands, AllocConfig{KPaths: 1 + rng.Intn(3)})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		const tol = 1e-6
		for i := range alloc.Demands {
			d := &alloc.Demands[i]
			if d.RateBps < -tol || d.RateBps > d.OfferedBps+tol {
				t.Logf("seed %d: demand %d rate %v outside [0, %v]", seed, i, d.RateBps, d.OfferedBps)
				return false
			}
		}
		for _, l := range links(n) {
			j, _ := n.link(l.From, l.To)
			load := alloc.linkLoad[j]
			if load > n.CapacityBps(l.From, l.To)*(1+1e-9)+tol {
				t.Logf("seed %d: link %v load %v above capacity %v", seed, l, load, n.CapacityBps(l.From, l.To))
				return false
			}
		}
		return checkMaxMinProperty(t, alloc, n)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocationEmptyDemands(t *testing.T) {
	n := NewNetwork(grid(t, [3]interface{}{"a", "b", 10}))
	alloc, err := MaxMinFair(n, nil, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.SatisfiedFraction() != 1 || alloc.JainIndex() != 1 {
		t.Error("empty allocation should be trivially satisfied and fair")
	}
	if _, u := alloc.MaxUtilization(); u != 0 {
		t.Errorf("empty allocation utilisation = %v, want 0", u)
	}
}

// separateOracle allocates the demands with every demand routed on its
// own: a one-demand MaxMinFair call picks each demand's widest of k, and
// a reference progressive fill over link IDs then runs on those fixed
// paths, in the kernel's demand order.
func separateOracle(t *testing.T, n *Network, demands []Demand, cfg AllocConfig) []DemandAllocation {
	t.Helper()
	out := make([]DemandAllocation, len(demands))
	links := make([][]LinkID, len(demands))
	users := map[LinkID]int{}
	active := make([]bool, len(demands))
	for i, d := range demands {
		alone, err := MaxMinFair(n, []Demand{d}, cfg)
		if err != nil {
			t.Fatalf("oracle: demand %d: %v", i, err)
		}
		out[i] = DemandAllocation{Demand: d, Path: alone.Demands[0].Path}
		for h := 0; h+1 < len(out[i].Path); h++ {
			links[i] = append(links[i], LinkID{out[i].Path[h], out[i].Path[h+1]})
		}
		if out[i].Path != nil && d.OfferedBps > 0 {
			active[i] = true
			for _, l := range links[i] {
				users[l]++
			}
		}
	}
	load := map[LinkID]float64{}
	eps := n.eps()
	freeze := func(i int) {
		active[i] = false
		for _, l := range links[i] {
			users[l]--
		}
	}
	for slices.Contains(active, true) {
		delta := math.Inf(1)
		for i := range out {
			if !active[i] {
				continue
			}
			delta = math.Min(delta, out[i].OfferedBps-out[i].RateBps)
			for _, l := range links[i] {
				delta = math.Min(delta, (n.CapacityBps(l.From, l.To)-load[l])/float64(users[l]))
			}
		}
		delta = math.Max(delta, 0)
		for i := range out {
			if active[i] {
				out[i].RateBps += delta
				for _, l := range links[i] {
					load[l] += delta
				}
			}
		}
		froze := false
		for i := range out {
			if !active[i] {
				continue
			}
			if out[i].RateBps >= out[i].OfferedBps-eps {
				out[i].RateBps = out[i].OfferedBps
				freeze(i)
				froze = true
				continue
			}
			for _, l := range links[i] {
				if load[l] >= n.CapacityBps(l.From, l.To)-eps {
					out[i].Bottleneck = l
					freeze(i)
					froze = true
					break
				}
			}
		}
		if !froze {
			for i := range out {
				if active[i] {
					freeze(i)
				}
			}
		}
	}
	return out
}

// checkLikeSeparate compares MaxMinFair against separateOracle demand by
// demand: the same path, rate and bottleneck.
func checkLikeSeparate(t *testing.T, label string, n *Network, demands []Demand, cfg AllocConfig) {
	t.Helper()
	alloc, err := MaxMinFair(n, demands, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := separateOracle(t, n, demands, cfg)
	for i := range want {
		got, w := &alloc.Demands[i], &want[i]
		if !slices.Equal(got.Path, w.Path) || (got.Path == nil) != (w.Path == nil) {
			t.Errorf("%s: demand %d (%s→%s) path %v, routed alone %v", label, i, w.Src, w.Dst, got.Path, w.Path)
		}
		if math.Abs(got.RateBps-w.RateBps) > 1e-9*(1+w.OfferedBps) || got.Bottleneck != w.Bottleneck {
			t.Errorf("%s: demand %d (%s→%s) rate %v behind %v, oracle %v behind %v",
				label, i, w.Src, w.Dst, got.RateBps, got.Bottleneck, w.RateBps, w.Bottleneck)
		}
	}
}

// TestMaxMinFairRepeatedPairsRouteLikeSeparatePairs pins the per-call pair
// memo: demands that repeat a (src, dst) pair across traffic classes get
// the path, rate and bottleneck they would get were each routed on its
// own, including pairs that are unroutable or routable only over a
// zero-capacity link, and the input checks still run on every demand.
func TestMaxMinFairRepeatedPairsRouteLikeSeparatePairs(t *testing.T) {
	n := NewNetwork(grid(t,
		[3]interface{}{"a", "m", 100}, [3]interface{}{"b", "m", 100},
		[3]interface{}{"m", "n", 10}, [3]interface{}{"a", "n", 3},
		[3]interface{}{"n", "c", 100}, [3]interface{}{"n", "d", 100},
		[3]interface{}{"c", "z", 0},
	))
	classes := []float64{8, 1, 20} // one offered load per class
	var demands []Demand
	for _, p := range [][2]string{{"a", "c"}, {"b", "d"}, {"c", "a"}, {"c", "z"}, {"a", "d"}} {
		for _, off := range classes {
			demands = append(demands, Demand{Src: p[0], Dst: p[1], OfferedBps: off})
		}
	}
	for k := 1; k <= 3; k++ {
		checkLikeSeparate(t, fmt.Sprintf("fixed k=%d", k), n, demands, AllocConfig{KPaths: k})
	}
	// c→a has no route and c→z only a zero-capacity one: every class of
	// both pairs stays unrouted.
	alloc, err := MaxMinFair(n, demands, AllocConfig{KPaths: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 12; i++ {
		if d := alloc.Demands[i]; d.Path != nil || d.RateBps != 0 {
			t.Errorf("demand %d (%s→%s) allocated %v over %v", i, d.Src, d.Dst, d.RateBps, d.Path)
		}
	}
	// The checks run for every demand, not only a pair's first.
	for _, bad := range []Demand{{Src: "a", Dst: "c", OfferedBps: -1}, {Src: "a", Dst: "ghost", OfferedBps: 1}} {
		in := []Demand{{Src: "a", Dst: "c", OfferedBps: 1}, bad}
		if _, err := MaxMinFair(n, in, AllocConfig{}); err == nil {
			t.Errorf("second demand %+v accepted", bad)
		}
	}

	// Random networks with demands drawn from a few pairs, so most repeat.
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rn := randomNetwork(rng)
		ids := rn.Snap.Nodes()
		var pairs [][2]string
		for len(pairs) < 3 {
			if src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]; src != dst {
				pairs = append(pairs, [2]string{src, dst})
			}
		}
		var ds []Demand
		for d := 0; d < 4+rng.Intn(8); d++ {
			p := pairs[rng.Intn(len(pairs))]
			ds = append(ds, Demand{Src: p[0], Dst: p[1], OfferedBps: float64(rng.Intn(40))})
		}
		checkLikeSeparate(t, fmt.Sprintf("seed %d", seed), rn, ds, AllocConfig{KPaths: 1 + rng.Intn(3)})
	}
}
