package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/fluid"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
)

// Scenario describes a workload to drive through a federation with the
// discrete-event engine: users send Poisson traffic to random gateways
// while their terminals hand over between satellites as the constellation
// moves.
type Scenario struct {
	// DurationS is the simulated horizon.
	DurationS float64
	// SnapshotIntervalS is the topology cadence (also the handover check
	// cadence).
	SnapshotIntervalS float64
	// PerUserRate is each user's transfer arrival rate (transfers/s).
	PerUserRate float64
	// MinBytes/MaxBytes bound the Pareto-distributed transfer sizes.
	MinBytes, MaxBytes int64
	// Seed drives workload randomness (independent of the network's seed).
	Seed int64
	// Faults optionally injects deterministic failures (satellite outages,
	// ISL flaps, ground weather, solar storms — see internal/faults). The
	// zero value disables injection entirely: a fault-free run takes exactly
	// the code path it did before this field existed.
	Faults faults.Config
	// Retry bounds the deterministic backoff for transfers that fail while
	// faults are active; the zero value means routing.DefaultBackoff().
	// Ignored when Faults is disabled.
	Retry routing.Backoff
	// Aggregate switches the run to fluid mode: the user population in
	// Aggregate.Users is bucketed into (city-pair × class) aggregates and
	// evolved through the max-min allocator once per snapshot interval,
	// instead of one engine event per transfer. The zero value keeps the
	// per-flow path byte-identical to runs that predate this field.
	// In fluid mode PerUserRate/MinBytes/MaxBytes and the network's users
	// are unused (traffic originates at cities, not modelled terminals),
	// and Aggregate.Seed falls back to Seed when zero.
	Aggregate fluid.Config
	// MaxEvents, when non-zero, bounds the number of engine events the run
	// may deliver — a deterministic, wall-clock-free timeout. A run that
	// exhausts the budget returns an error wrapping ErrEventBudget; the
	// zero value leaves runs unbounded and byte-identical to scenarios
	// that predate this field.
	MaxEvents uint64
}

// ErrEventBudget marks a scenario that stopped because it exhausted its
// MaxEvents budget. Because the budget counts simulated events — never
// wall-clock — exhaustion is reproducible: the same scenario exhausts the
// same budget at the same event on every machine. Callers distinguish it
// with errors.Is; the campaign supervisor treats it as a non-retryable
// timeout (re-running a deterministic run re-exhausts deterministically).
var ErrEventBudget = errors.New("core: simulated-event budget exhausted")

// Validate reports whether the scenario is runnable.
func (s Scenario) Validate() error {
	if !positiveFinite(s.DurationS) {
		return fmt.Errorf("core: scenario duration %v must be positive and finite", s.DurationS)
	}
	if !positiveFinite(s.SnapshotIntervalS) {
		return fmt.Errorf("core: snapshot interval %v must be positive and finite", s.SnapshotIntervalS)
	}
	if math.IsNaN(s.PerUserRate) || math.IsInf(s.PerUserRate, 0) {
		return fmt.Errorf("core: per-user rate %v must be finite", s.PerUserRate)
	}
	if !s.Aggregate.Enabled() {
		// Per-flow workload knobs; fluid mode derives its workload from
		// the class matrix instead.
		if s.PerUserRate <= 0 {
			return errors.New("core: per-user rate must be positive")
		}
		if s.MinBytes <= 0 || s.MaxBytes < s.MinBytes {
			return fmt.Errorf("core: transfer size bounds [%d,%d] invalid", s.MinBytes, s.MaxBytes)
		}
	}
	// A NaN failure rate reads as disabled, so the fault config is checked
	// whether or not it is enabled.
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	if err := s.Retry.Validate(); err != nil {
		return fmt.Errorf("core: retry: %w", err)
	}
	return nil
}

func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// ScenarioResult aggregates a scenario run.
type ScenarioResult struct {
	TransfersAttempted     int
	TransfersDelivered     int
	BytesDelivered         int64
	LatencyS               sim.Histogram
	Handovers              int
	CrossProviderHandovers int
	CarriageUSD            float64
	GatewayUSD             float64
	EventsProcessed        uint64

	// Fault-injection counters, all zero when Scenario.Faults is disabled.
	FaultEvents        int // fault state transitions observed (failures + repairs)
	DroppedTerminals   int // terminals forced back to idle by a serving-satellite outage
	Retries            int // transfer retry attempts scheduled
	RecoveredTransfers int // transfers delivered after at least one retry
	AbandonedTransfers int // transfers that exhausted the retry budget

	// Fluid carries the aggregate-mode detail (per-class counters and
	// bounded-memory latency sketches); nil on the per-flow path. In fluid
	// mode LatencyS stays empty (latency lives in Fluid.Latency) and the
	// economics counters stay 0 (aggregates carry no per-delivery pricing).
	Fluid *fluid.Result
}

// DeliveryRate returns the delivered fraction.
func (r *ScenarioResult) DeliveryRate() float64 {
	if r.TransfersAttempted == 0 {
		return 0
	}
	return float64(r.TransfersDelivered) / float64(r.TransfersAttempted)
}

// RunScenario drives the workload through the network on a discrete-event
// engine: per-user Poisson transfer arrivals (sent to the
// completion-optimal gateway), and periodic handover checks that move each
// terminal to its planned successor when the serving satellite sets.
// The network must have users added; topology is (re)built to cover the
// scenario horizon.
func (n *Network) RunScenario(sc Scenario) (*ScenarioResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Aggregate.Enabled() {
		return n.runAggregateScenario(sc)
	}
	if len(n.users) == 0 {
		return nil, errors.New("core: scenario needs at least one user")
	}
	if err := n.BuildTopology(0, sc.DurationS, sc.SnapshotIntervalS); err != nil {
		return nil, err
	}

	// Associate everyone at t=0; users in a coverage gap at t=0 retry at
	// each handover tick.
	userIDs := make([]string, 0, len(n.users))
	for id := range n.users {
		userIDs = append(userIDs, id)
	}
	sort.Strings(userIDs)
	associated := map[string]bool{}
	for _, id := range userIDs {
		if err := n.Associate(id, 0); err == nil {
			associated[id] = true
		}
	}

	rng := exec.DomainRNG(sc.Seed, domainScenario)
	engine := sim.NewEngine()
	engine.MaxEvents = sc.MaxEvents
	res := &ScenarioResult{}

	// Fault injection: generate the deterministic timeline over the intact
	// t=0 snapshot and drive it through the engine. Each transition swaps in
	// a degraded overlay of the topology (association and routing then see
	// only surviving elements) and drops terminals whose serving satellite
	// died; they re-associate at the next handover tick. Fault transitions
	// are scheduled before the workload, so at equal instants failures land
	// before the transfers that must route around them.
	faultsOn := sc.Faults.Enabled()
	if faultsOn {
		tl, err := faults.Generate(sc.Faults, sc.DurationS, faults.InputsFromSnapshot(n.te.At(0)))
		if err != nil {
			return nil, err
		}
		mask := faults.NewMask()
		onChange := func(e *sim.Engine, _ faults.Event, down bool) {
			res.FaultEvents++
			if err := n.ApplyFaultMask(mask); err != nil {
				panic(err) // unreachable: topology was built above
			}
			if !down {
				return
			}
			for _, id := range userIDs {
				if !associated[id] {
					continue
				}
				u := n.users[id]
				serving, _ := u.Terminal.Serving()
				if mask.NodeDown(serving) {
					u.Terminal.Dropped()
					associated[id] = false
					res.DroppedTerminals++
				}
			}
		}
		if err := tl.Drive(engine, mask, onChange); err != nil {
			return nil, err
		}
	}
	retry := sc.Retry
	if retry == (routing.Backoff{}) {
		retry = routing.DefaultBackoff()
	}

	// Transfer arrivals per user. With faults enabled, a failed send retries
	// with bounded deterministic backoff — the jitter real stacks add is for
	// breaking synchronisation, which the engine's deterministic tie-break
	// already provides.
	var attemptSend func(e *sim.Engine, id string, bytes int64, attempt int)
	attemptSend = func(e *sim.Engine, id string, bytes int64, attempt int) {
		if associated[id] {
			if d, _, err := n.SendBest(id, bytes, e.Now()); err == nil {
				res.TransfersDelivered++
				res.BytesDelivered += bytes
				res.LatencyS.Add(d.LatencyS)
				res.CarriageUSD += d.CarriageUSD
				res.GatewayUSD += d.GatewayFeeUSD
				if attempt > 0 {
					res.RecoveredTransfers++
				}
				return
			}
		}
		if !faultsOn {
			return // keep the fault-free path byte-identical to older runs
		}
		delay, ok := retry.DelayS(attempt)
		if !ok || e.Now()+delay >= sc.DurationS {
			res.AbandonedTransfers++
			return
		}
		res.Retries++
		if err := e.After(delay, func(e *sim.Engine) {
			attemptSend(e, id, bytes, attempt+1)
		}); err != nil {
			panic(err) // unreachable: delay validated non-negative
		}
	}
	for _, id := range userIDs {
		arrivals, err := sim.PoissonArrivals(sc.PerUserRate, sc.DurationS, rng)
		if err != nil {
			return nil, err
		}
		for _, at := range arrivals {
			id := id
			bytes := sim.FlowSizeBytes(sc.MinBytes, sc.MaxBytes, 1.2, rng)
			if err := engine.Schedule(at, func(e *sim.Engine) {
				res.TransfersAttempted++
				attemptSend(e, id, bytes, 0)
			}); err != nil {
				return nil, err
			}
		}
	}

	// Periodic handover maintenance.
	var tick func(*sim.Engine)
	tick = func(e *sim.Engine) {
		now := e.Now()
		for _, id := range userIDs {
			if !associated[id] {
				// Retry association for users that started in a gap.
				if err := n.Associate(id, now); err == nil {
					associated[id] = true
				}
				continue
			}
			plan, err := n.PlanHandover(id, now, sc.SnapshotIntervalS)
			if err != nil {
				continue // serving satellite outlives this interval
			}
			if plan.SetTimeS <= now+sc.SnapshotIntervalS {
				if err := n.ExecuteHandover(id, plan); err == nil {
					res.Handovers++
					if plan.CrossProvider {
						res.CrossProviderHandovers++
					}
				}
			}
		}
		next := now + sc.SnapshotIntervalS
		if next < sc.DurationS {
			if err := e.Schedule(next, tick); err != nil {
				panic(err) // unreachable: next > now ≥ 0 while the engine runs
			}
		}
	}
	if err := engine.Schedule(0, tick); err != nil {
		return nil, err
	}

	engine.Run(sc.DurationS)
	res.EventsProcessed = engine.Processed
	if engine.Exhausted() {
		return nil, fmt.Errorf("core: scenario stopped after %d events: %w", engine.Processed, ErrEventBudget)
	}
	return res, nil
}
