package traffic

import (
	"fmt"
	"math"

	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/topo"
)

// AllocConfig parameterises the max-min fair allocator.
type AllocConfig struct {
	// KPaths is how many loopless shortest paths (routing.KShortestPaths)
	// are considered per demand; the widest of them — largest bottleneck
	// capacity under this network's capacity map — carries the demand.
	// ≤ 0 means 1 (pure shortest path).
	KPaths int
	// Cost scores candidate paths. Nil means GatewayTransitCost: latency
	// with user access links excluded.
	Cost routing.CostFunc
}

// DemandAllocation is one demand's outcome.
type DemandAllocation struct {
	Demand
	// Path is the node sequence carrying the demand; nil when the network
	// offers no route.
	Path []string
	// RateBps is the allocated rate, ≤ OfferedBps.
	RateBps float64
	// Bottleneck names the saturated link that froze this demand's rate.
	// It is the zero LinkID when the demand is fully satisfied or has no
	// path.
	Bottleneck LinkID
}

// Satisfied reports whether the demand got its full offered rate.
func (d *DemandAllocation) Satisfied() bool {
	return d.Path != nil && d.RateBps >= d.OfferedBps
}

// Allocation is a complete max-min fair assignment. It implements
// routing.LoadMap, so a finished allocation can feed load-aware QoS routing
// directly.
type Allocation struct {
	Demands  []DemandAllocation
	net      *Network
	linkLoad []float64 // carried bps per CSR edge slot
}

var _ routing.LoadMap = (*Allocation)(nil)

// Utilization implements routing.LoadMap: the carried fraction of the
// directed link's capacity, in [0, 1].
func (a *Allocation) Utilization(from, to string) float64 {
	if j, ok := a.net.link(from, to); ok {
		return a.utilization(j)
	}
	return 0
}

func (a *Allocation) utilization(j int32) float64 {
	c := a.net.caps[j]
	if c <= 0 {
		return 0
	}
	u := a.linkLoad[j] / c
	if u > 1 {
		return 1
	}
	return u
}

// OfferedBps sums the offered load over all demands.
func (a *Allocation) OfferedBps() float64 {
	var total float64
	for i := range a.Demands {
		total += a.Demands[i].OfferedBps
	}
	return total
}

// CarriedBps sums the allocated rates: the traffic the constellation
// actually carries.
func (a *Allocation) CarriedBps() float64 {
	var total float64
	for i := range a.Demands {
		total += a.Demands[i].RateBps
	}
	return total
}

// SatisfiedFraction is carried/offered load, 1 with no demands.
func (a *Allocation) SatisfiedFraction() float64 {
	off := a.OfferedBps()
	if off <= 0 {
		return 1
	}
	return a.CarriedBps() / off
}

// JainIndex is Jain's fairness index over the per-demand satisfaction
// ratios rate/offered: 1 when every demand gets the same share of its ask,
// approaching 1/n when one demand starves the rest. 1 with no demands.
func (a *Allocation) JainIndex() float64 {
	var sum, sumSq float64
	n := 0
	for i := range a.Demands {
		d := &a.Demands[i]
		if d.OfferedBps <= 0 {
			continue
		}
		x := d.RateBps / d.OfferedBps
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// MaxUtilization returns the most loaded link and its utilisation — the
// system bottleneck. The zero LinkID is returned when nothing is loaded.
func (a *Allocation) MaxUtilization() (LinkID, float64) {
	var best LinkID
	var bestU float64
	for j := range a.linkLoad {
		if u := a.utilization(int32(j)); u > bestU { // masked links have no capacity
			best, bestU = a.net.linkID(int32(j)), u
		}
	}
	return best, bestU
}

// fillState is the progressive-filling working set with links interned
// into dense indices, so the fill loop runs over slices instead of
// recomputing per-link membership maps every round. Everything here is
// preallocated before run starts: the kernel itself must not allocate
// (see TestAllocGateMaxMinFill).
type fillState struct {
	eps       float64
	snap      *topo.Snapshot
	edgeLink  []int32   //lint:scratch — CSR edge slot → interned link, -1 until first use
	linkEdge  []int32   //lint:scratch — interned link → CSR edge slot
	linkCap   []float64 //lint:scratch
	linkLoad  []float64 //lint:scratch
	linkUsers []int32   //lint:scratch — active demands per link, decremented on freeze
	demLinks  [][]int32 //lint:scratch — interned link indices per demand, path order
	active    []bool    //lint:scratch
	nActive   int
}

// intern maps one of a demand's path links (a CSR edge slot) to its dense
// index, creating the link's capacity/load/user slots on first sight.
// Loopless paths never repeat a link, but dedup keeps the per-demand user
// count exact regardless.
func (st *fillState) intern(dem int, j int32, n *Network) {
	li := st.edgeLink[j]
	if li < 0 {
		li = int32(len(st.linkEdge))
		st.edgeLink[j] = li
		st.linkEdge = append(st.linkEdge, j)
		st.linkCap = append(st.linkCap, n.caps[j])
		st.linkLoad = append(st.linkLoad, 0)
		st.linkUsers = append(st.linkUsers, 0)
	}
	for _, existing := range st.demLinks[dem] {
		if existing == li {
			return
		}
	}
	st.demLinks[dem] = append(st.demLinks[dem], li)
}

// freeze takes demand i out of the fill and releases its link shares.
func (st *fillState) freeze(i int) {
	st.active[i] = false
	st.nActive--
	for _, li := range st.demLinks[i] {
		st.linkUsers[li]--
	}
}

// run is the progressive-filling kernel: every unfrozen demand's rate
// rises at the same pace; a demand freezes when it reaches its offered
// load or when a link on its path saturates. Rounds, demands, and links
// are traversed in fixed order, and each round adds one identical delta
// per active user to each link's load, so the result is bit-identical to
// the pre-interning map-based implementation.
//
//lint:hotpath
func (st *fillState) run(dems []DemandAllocation) {
	for st.nActive > 0 {
		// The uniform rate increment until the first event: a link
		// saturating or a demand reaching its offered load.
		delta := math.Inf(1)
		for i := range dems {
			if !st.active[i] {
				continue
			}
			if room := dems[i].OfferedBps - dems[i].RateBps; room < delta {
				delta = room
			}
			for _, li := range st.demLinks[i] {
				if nu := st.linkUsers[li]; nu > 0 {
					if room := (st.linkCap[li] - st.linkLoad[li]) / float64(nu); room < delta {
						delta = room
					}
				}
			}
		}
		if delta < 0 {
			delta = 0
		}
		for i := range dems {
			if !st.active[i] {
				continue
			}
			dems[i].RateBps += delta
			for _, li := range st.demLinks[i] {
				st.linkLoad[li] += delta
			}
		}
		// Freeze demands at their offered load or behind a saturated link.
		froze := false
		for i := range dems {
			if !st.active[i] {
				continue
			}
			d := &dems[i]
			if d.RateBps >= d.OfferedBps-st.eps {
				d.RateBps = d.OfferedBps
				st.freeze(i)
				froze = true
				continue
			}
			for _, li := range st.demLinks[i] {
				if st.linkLoad[li] >= st.linkCap[li]-st.eps {
					e := st.snap.EdgeAt(st.linkEdge[li])
					d.Bottleneck = LinkID{e.From, e.To}
					st.freeze(i)
					froze = true
					break
				}
			}
		}
		if !froze {
			// Float-tolerance stall: nothing crossed a threshold despite a
			// minimal delta. Freeze everything at current rates to
			// guarantee termination; the allocation stays feasible.
			for i := range dems {
				if st.active[i] {
					st.freeze(i)
				}
			}
		}
	}
}

// prepareFill routes every demand onto the widest of its k shortest
// paths and builds the interned fill state — the allocating, cold half of
// MaxMinFair.
func prepareFill(n *Network, demands []Demand, cfg AllocConfig) (*Allocation, *fillState, error) {
	k := cfg.KPaths
	if k <= 0 {
		k = 1
	}
	cost := cfg.Cost
	if cost == nil {
		cost = GatewayTransitCost()
	}
	_, to := n.Snap.CSR()
	alloc := &Allocation{
		Demands:  make([]DemandAllocation, len(demands)),
		net:      n,
		linkLoad: make([]float64, len(to)),
	}
	st := &fillState{
		eps:      n.eps(),
		snap:     n.Snap,
		edgeLink: make([]int32, len(to)),
		demLinks: make([][]int32, len(demands)),
		active:   make([]bool, len(demands)),
	}
	for j := range st.edgeLink {
		st.edgeLink[j] = -1
	}
	// One searcher serves every demand: edge weights are evaluated once,
	// and demands sharing a source take their first path from one tree.
	sr := routing.NewSearcher(n.Snap, cost)
	// The widest of k depends only on the snapshot, the cost, k and the
	// pair, so Yen runs once per (src, dst): later demands on the pair —
	// one per traffic class — take the first one's route.
	firstOf := make(map[[2]int32]int, len(demands))
	var widest []int32
	for i, d := range demands {
		alloc.Demands[i] = DemandAllocation{Demand: d}
		if d.OfferedBps < 0 {
			return nil, nil, fmt.Errorf("traffic: demand %s→%s has negative offered load", d.Src, d.Dst)
		}
		src, okS := n.Snap.NodeIndex(d.Src)
		dst, okD := n.Snap.NodeIndex(d.Dst)
		if !okS || !okD {
			return nil, nil, fmt.Errorf("traffic: demand %s→%s references unknown node", d.Src, d.Dst)
		}
		pair := [2]int32{src, dst}
		if f, ok := firstOf[pair]; ok {
			if path := alloc.Demands[f].Path; path != nil {
				alloc.Demands[i].Path = append([]string(nil), path...)
				st.demLinks[i] = st.demLinks[f] // read-only once prepared
			}
			continue
		}
		firstOf[pair] = i
		// The widest path wins; ties go to the lower Yen rank.
		bestCap := -1.0
		err := sr.KShortestEdges(d.Src, d.Dst, k, func(edges []int32) {
			if c := pathBottleneckBps(n, edges); c > bestCap {
				bestCap = c
				widest = append(widest[:0], edges...)
			}
		})
		if err != nil || bestCap <= 0 {
			continue // unroutable, or routable only over zero-capacity links: rate stays 0
		}
		nodes := make([]string, len(widest)+1)
		nodes[0] = d.Src
		for h, j := range widest {
			nodes[h+1] = n.Snap.NodeID(to[j])
			st.intern(i, j, n)
		}
		alloc.Demands[i].Path = nodes
	}
	for i := range alloc.Demands {
		if alloc.Demands[i].Path != nil && alloc.Demands[i].OfferedBps > 0 {
			st.active[i] = true
			st.nActive++
			for _, li := range st.demLinks[i] {
				st.linkUsers[li]++
			}
		}
	}
	return alloc, st, nil
}

// MaxMinFair computes a max-min fair rate allocation for the demands by
// progressive filling: every unfrozen demand's rate rises at the same pace;
// a demand freezes when it reaches its offered load or when a link on its
// path saturates. The result has the max-min property — no demand's rate
// can be raised without lowering the rate of a demand that has no more —
// restricted to the single path each demand is assigned (the widest of its
// k shortest).
//
// The computation is deterministic: demands are processed in input order,
// links in sorted order, and path selection breaks ties toward the lower
// Yen rank.
func MaxMinFair(n *Network, demands []Demand, cfg AllocConfig) (*Allocation, error) {
	alloc, st, err := prepareFill(n, demands, cfg)
	if err != nil {
		return nil, err
	}
	st.run(alloc.Demands)
	for li, j := range st.linkEdge {
		alloc.linkLoad[j] = st.linkLoad[li]
	}
	return alloc, nil
}

// pathBottleneckBps returns the smallest capacity along the CSR edges
// under the network's capacity table (which may differ from the snapshot's
// edge capacities after Recapacitate).
func pathBottleneckBps(n *Network, edges []int32) float64 {
	bottleneck := math.Inf(1)
	for _, j := range edges {
		if c := n.caps[j]; c < bottleneck {
			bottleneck = c
		}
	}
	if math.IsInf(bottleneck, 1) {
		return 0
	}
	return bottleneck
}
