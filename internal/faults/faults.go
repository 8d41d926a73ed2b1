// Package faults is the deterministic fault-injection layer: it generates
// reproducible fault timelines (satellite hard failures, ISL laser-terminal
// flaps, ground-station weather outages, and correlated solar-storm mass
// events), maintains the set of currently failed elements as a cheap
// overlay mask on topology snapshots, and drives dynamic recovery — fast
// reroute onto precomputed edge-disjoint backups, falling back to a full
// recompute on the degraded topology — through the discrete-event engine.
//
// The paper's §4 redundancy claim ("operational failures, load balancing,
// and range cutoffs … can be handled efficiently") is only testable with a
// notion of *when* failures happen and whether they heal; this package is
// the substrate every time-varying robustness scenario builds on. Every
// timeline is a pure function of (Config, horizon, element list): per-
// element RNG streams are derived from exec.Seed domain tags, so the same
// configuration produces byte-identical fault schedules at any worker
// count and regardless of element iteration order.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/topo"
)

// RNG domains: each fault class draws an independent stream, so adding a
// ground station can never perturb the satellite failure schedule. The
// IDs predate the tags — every committed fault schedule keeps its stream.
var (
	domainSat    = exec.Domain{Tag: "faults/satfail", ID: 101}
	domainISL    = exec.Domain{Tag: "faults/islflap", ID: 102}
	domainGround = exec.Domain{Tag: "faults/ground", ID: 103}
	domainStorm  = exec.Domain{Tag: "faults/storm", ID: 104}
)

// Kind labels a fault class.
type Kind int32

// Fault kinds.
const (
	// KindSatFailure is a satellite hard failure: the node and every
	// incident link disappear until repair.
	KindSatFailure Kind = iota
	// KindISLFlap is a laser-terminal (or RF chain) flap on one
	// inter-satellite link: the undirected edge disappears briefly.
	KindISLFlap
	// KindGroundOutage is a ground-station weather outage: the station
	// node disappears until the weather clears.
	KindGroundOutage
	// KindStorm marks a satellite outage belonging to a correlated
	// solar-storm mass event rather than an independent failure.
	KindStorm
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSatFailure:
		return "sat-failure"
	case KindISLFlap:
		return "isl-flap"
	case KindGroundOutage:
		return "ground-outage"
	case KindStorm:
		return "solar-storm"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one fault interval: the target element is down during
// [StartS, EndS). Elem indexes the timeline's Inputs, in the list Kind
// names: Satellites for satellite failures and storms, Grounds for ground
// outages, ISLs for ISL flaps (undirected).
type Event struct {
	Kind   Kind
	Elem   int32
	StartS float64
	EndS   float64
}

// Config parameterises timeline generation. Each element class fails as a
// renewal process: up-times are exponential with the class MTBF, repair
// times exponential with the class MTTR. A zero MTBF disables the class,
// so the zero Config injects nothing.
type Config struct {
	// SatMTBFS / SatMTTRS govern independent satellite hard failures.
	SatMTBFS, SatMTTRS float64
	// ISLMTBFS / ISLMTTRS govern per-link laser-terminal flaps.
	ISLMTBFS, ISLMTTRS float64
	// GroundMTBFS / GroundMTTRS govern ground-station weather outages.
	GroundMTBFS, GroundMTTRS float64
	// StormMTBFS is the fleet-wide mean time between solar storms; each
	// storm takes down StormFraction of the satellites (each drawn
	// independently) for exponential StormMTTRS outages.
	StormMTBFS, StormMTTRS float64
	StormFraction          float64
	// Seed roots every per-element RNG stream.
	Seed int64
}

// Default returns a reference fault environment for an Iridium-scale
// fleet: rare hard failures, frequent short ISL flaps, occasional long
// weather outages, and a rare storm that downs 30 % of the fleet at once.
func Default() Config {
	return Config{
		SatMTBFS: 24 * 3600, SatMTTRS: 20 * 60,
		ISLMTBFS: 12 * 3600, ISLMTTRS: 60,
		GroundMTBFS: 12 * 3600, GroundMTTRS: 30 * 60,
		StormMTBFS: 48 * 3600, StormMTTRS: 15 * 60,
		StormFraction: 0.3,
		Seed:          1,
	}
}

// Enabled reports whether any fault class can fire.
func (c Config) Enabled() bool {
	return c.SatMTBFS > 0 || c.ISLMTBFS > 0 || c.GroundMTBFS > 0 || c.StormMTBFS > 0
}

// Validate rejects configurations that cannot generate a well-formed
// timeline.
func (c Config) Validate() error {
	check := func(name string, mtbf, mttr float64) error {
		if !(mtbf >= 0) || math.IsInf(mtbf, 1) || !(mttr >= 0) || math.IsInf(mttr, 1) {
			return fmt.Errorf("faults: %s MTBF/MTTR (%v s, %v s) must be finite and non-negative", name, mtbf, mttr)
		}
		if mtbf > 0 && mttr <= 0 {
			return fmt.Errorf("faults: %s enabled (MTBF %.0f s) but MTTR is zero", name, mtbf)
		}
		return nil
	}
	if err := check("satellite", c.SatMTBFS, c.SatMTTRS); err != nil {
		return err
	}
	if err := check("ISL", c.ISLMTBFS, c.ISLMTTRS); err != nil {
		return err
	}
	if err := check("ground", c.GroundMTBFS, c.GroundMTTRS); err != nil {
		return err
	}
	if err := check("storm", c.StormMTBFS, c.StormMTTRS); err != nil {
		return err
	}
	if math.IsNaN(c.StormFraction) || (c.StormMTBFS > 0 && (c.StormFraction <= 0 || c.StormFraction > 1)) {
		return fmt.Errorf("faults: storm fraction %.2f must be in (0,1]", c.StormFraction)
	}
	return nil
}

// Scale returns the config with every failure rate multiplied by
// intensity (MTBFs divided; repair times unchanged). intensity 0 disables
// all classes — the knob the availability experiment sweeps.
func (c Config) Scale(intensity float64) Config {
	if intensity <= 0 {
		c.SatMTBFS, c.ISLMTBFS, c.GroundMTBFS, c.StormMTBFS = 0, 0, 0, 0
		return c
	}
	c.SatMTBFS /= intensity
	c.ISLMTBFS /= intensity
	c.GroundMTBFS /= intensity
	c.StormMTBFS /= intensity
	return c
}

// Inputs names the maskable elements of a topology, in the deterministic
// order their RNG streams are indexed by. Build one with
// InputsFromSnapshot or assemble directly: IDs sorted and distinct within
// each list, ISL endpoints ordered From < To and the pairs sorted and
// distinct. In that order an element's index sorts as its name does, which
// is what lets events carry indices (see Generate).
type Inputs struct {
	Satellites []string
	Grounds    []string
	ISLs       [][2]string
}

// check rejects Inputs that are not in the documented order.
func (in *Inputs) check() error {
	if err := checkIDs("satellite", in.Satellites); err != nil {
		return err
	}
	if err := checkIDs("ground", in.Grounds); err != nil {
		return err
	}
	for i, isl := range in.ISLs {
		if isl[0] >= isl[1] {
			return fmt.Errorf("faults: ISL %q–%q must have From < To", isl[0], isl[1])
		}
		if i > 0 && compareISLs(in.ISLs[i-1], isl) >= 0 {
			return fmt.Errorf("faults: ISLs must be sorted and distinct: %q then %q", in.ISLs[i-1], isl)
		}
	}
	return nil
}

func checkIDs(class string, ids []string) error {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return fmt.Errorf("faults: %s IDs must be sorted and distinct: %q then %q", class, ids[i-1], ids[i])
		}
	}
	return nil
}

func compareISLs(a, b [2]string) int {
	if c := strings.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return strings.Compare(a[1], b[1])
}

// elements returns the size of the element index space: satellites, then
// grounds, then ISLs.
func (in *Inputs) elements() int {
	return len(in.Satellites) + len(in.Grounds) + len(in.ISLs)
}

// nodes returns the number of node elements; element indices at or above
// it are ISLs.
func (in *Inputs) nodes() int32 { return int32(len(in.Satellites) + len(in.Grounds)) }

// element maps an event's target into the element index space, or returns
// -1 when the event names no element of in.
func (in *Inputs) element(ev Event) int32 {
	var base, n int
	switch ev.Kind {
	case KindSatFailure, KindStorm:
		n = len(in.Satellites)
	case KindGroundOutage:
		base, n = len(in.Satellites), len(in.Grounds)
	case KindISLFlap:
		base, n = int(in.nodes()), len(in.ISLs)
	}
	if ev.Elem < 0 || int(ev.Elem) >= n {
		return -1
	}
	return int32(base) + ev.Elem
}

// InputsFromSnapshot collects the satellites, ground stations and
// undirected ISLs of a snapshot in sorted order.
func InputsFromSnapshot(s *topo.Snapshot) Inputs {
	var in Inputs
	for _, id := range s.Nodes() { // sorted
		switch s.Node(id).Kind {
		case topo.KindSatellite:
			in.Satellites = append(in.Satellites, id)
		case topo.KindGroundStation:
			in.Grounds = append(in.Grounds, id)
		}
	}
	// Undirected ISLs as ordered index pairs: index order is ID order, so
	// sorting the pairs sorts the IDs.
	var pairs [][2]int32
	off, to := s.CSR()
	for u := int32(0); int(u) < s.NodeSlots(); u++ {
		for j := off[u]; j < off[u+1]; j++ {
			if k := s.EdgeAt(j).Kind; !s.EdgeLive(j) || (k != topo.LinkISLRF && k != topo.LinkISLLaser) {
				continue
			}
			pairs = append(pairs, [2]int32{min(u, to[j]), max(u, to[j])})
		}
	}
	slices.SortFunc(pairs, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	for _, p := range slices.Compact(pairs) {
		in.ISLs = append(in.ISLs, [2]string{s.NodeID(p[0]), s.NodeID(p[1])})
	}
	return in
}

// Timeline is a deterministic fault schedule over [0, HorizonS).
type Timeline struct {
	HorizonS float64
	// Inputs names the elements the events index.
	Inputs Inputs
	// Events are sorted by start time (ties broken by kind, target and
	// end time).
	Events []Event
}

// Generate builds the fault timeline for the given elements over
// [0, horizonS). Each element's failure process draws from its own RNG
// stream (exec.Seed with a per-class domain tag and the element's index),
// so the timeline is identical however the caller parallelises around it.
// Events name their targets by index into in, which must be in the order
// Inputs documents: there an index sorts as its ID does, so the timeline
// order is the order of the targets' names. Generate rejects any other
// Inputs rather than order same-instant faults by a different rule.
func Generate(cfg Config, horizonS float64, in Inputs) (*Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if horizonS <= 0 {
		return nil, fmt.Errorf("faults: horizon %.1f must be positive", horizonS)
	}
	if err := in.check(); err != nil {
		return nil, err
	}
	tl := &Timeline{HorizonS: horizonS, Inputs: in}

	// Independent renewal processes per element.
	renewal := func(domain exec.Domain, kind Kind, n int, mtbf, mttr float64) {
		if mtbf <= 0 {
			return
		}
		for i := 0; i < n; i++ {
			rng := exec.DomainRNG(cfg.Seed, domain, int64(i))
			t := rng.ExpFloat64() * mtbf
			for t < horizonS {
				end := t + rng.ExpFloat64()*mttr
				tl.Events = append(tl.Events, Event{Kind: kind, Elem: int32(i), StartS: t, EndS: end})
				t = end + rng.ExpFloat64()*mtbf
			}
		}
	}
	renewal(domainSat, KindSatFailure, len(in.Satellites), cfg.SatMTBFS, cfg.SatMTTRS)
	renewal(domainISL, KindISLFlap, len(in.ISLs), cfg.ISLMTBFS, cfg.ISLMTTRS)
	renewal(domainGround, KindGroundOutage, len(in.Grounds), cfg.GroundMTBFS, cfg.GroundMTTRS)

	// Correlated mass events: one fleet-wide storm process; each storm
	// rolls per-satellite membership and outage length from a per-storm
	// stream, so storms are reproducible independently of each other.
	if cfg.StormMTBFS > 0 {
		arrivals := exec.DomainRNG(cfg.Seed, domainStorm)
		t := arrivals.ExpFloat64() * cfg.StormMTBFS
		for storm := 0; t < horizonS; storm++ {
			srng := exec.DomainRNG(cfg.Seed, domainStorm, int64(storm))
			for i := range in.Satellites {
				if srng.Float64() >= cfg.StormFraction {
					continue
				}
				end := t + srng.ExpFloat64()*cfg.StormMTTRS
				tl.Events = append(tl.Events, Event{Kind: KindStorm, Elem: int32(i), StartS: t, EndS: end})
			}
			t += arrivals.ExpFloat64() * cfg.StormMTBFS
		}
	}

	slices.SortFunc(tl.Events, compareEvents)
	return tl, nil
}

// compareEvents is the timeline order: start time, then kind and target,
// then end time. Every field of an Event takes part, so the order is total
// and the sorted timeline does not depend on the sort algorithm. On
// Inputs in their documented order, comparing targets by index compares
// them by name.
func compareEvents(a, b Event) int {
	if c := cmp.Compare(a.StartS, b.StartS); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Elem, b.Elem); c != 0 {
		return c
	}
	return cmp.Compare(a.EndS, b.EndS)
}
