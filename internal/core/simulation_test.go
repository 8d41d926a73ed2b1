package core

import (
	"math"
	"reflect"
	"testing"

	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/fluid"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/routing"
)

func scenarioNetwork(t *testing.T) *Network {
	t.Helper()
	n, err := NewNetwork(threeProviderConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range []geo.LatLon{
		{Lat: 40.44, Lon: -79.99},
		{Lat: -1.29, Lon: 36.82},
		{Lat: 51.51, Lon: -0.13},
	} {
		isp := []string{"acme", "orbitco", "skynet"}[i]
		if _, err := n.AddUser(userName(i), isp, pos); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func userName(i int) string { return string(rune('a'+i)) + "-user" }

func TestScenarioValidate(t *testing.T) {
	good := Scenario{DurationS: 100, SnapshotIntervalS: 10, PerUserRate: 0.1, MinBytes: 1, MaxBytes: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("good scenario rejected: %v", err)
	}
	cases := []func(*Scenario){
		func(s *Scenario) { s.DurationS = 0 },
		func(s *Scenario) { s.SnapshotIntervalS = 0 },
		func(s *Scenario) { s.PerUserRate = 0 },
		func(s *Scenario) { s.MinBytes = 0 },
		func(s *Scenario) { s.MaxBytes = 0 },
		func(s *Scenario) { s.Faults = faults.Config{SatMTBFS: 3600} }, // enabled but MTTR zero
		func(s *Scenario) { s.DurationS = math.NaN() },
		func(s *Scenario) { s.DurationS = math.Inf(1) },
		func(s *Scenario) { s.SnapshotIntervalS = math.NaN() },
		func(s *Scenario) { s.SnapshotIntervalS = math.Inf(1) },
		func(s *Scenario) { s.PerUserRate = math.NaN() },
		func(s *Scenario) { s.PerUserRate = math.Inf(1) },
		func(s *Scenario) { s.Aggregate.Users = 1000; s.PerUserRate = math.NaN() },
		// A NaN failure rate reads as "disabled" and used to run fault-free.
		func(s *Scenario) { s.Faults = faults.Default(); s.Faults.SatMTBFS = math.NaN() },
		func(s *Scenario) { s.Retry = routing.Backoff{BaseS: math.NaN(), MaxS: 30, MaxAttempts: 5} },
		func(s *Scenario) { s.Retry = routing.Backoff{BaseS: 2, MaxS: math.Inf(1), MaxAttempts: 5} },
		func(s *Scenario) { s.Retry = routing.Backoff{BaseS: -1, MaxS: 30, MaxAttempts: 5} },
	}
	for i, mutate := range cases {
		sc := good
		mutate(&sc)
		if sc.Validate() == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

// FuzzScenarioValidate checks that whatever Validate accepts is runnable:
// a finite, positive horizon and interval, a finite rate that is positive
// on the per-flow path (fluid mode does not read it), and a retry schedule
// whose delays are finite and non-negative.
func FuzzScenarioValidate(f *testing.F) {
	f.Add(100.0, 10.0, 0.1, int64(1), int64(10), 2.0, 30.0, 5, false, 0.0)
	f.Add(math.NaN(), 10.0, 0.1, int64(1), int64(10), 0.0, 0.0, 0, false, 0.0)
	f.Add(100.0, math.Inf(1), 0.1, int64(1), int64(10), 0.0, 0.0, 0, true, 0.0)
	f.Add(100.0, 10.0, math.NaN(), int64(1), int64(10), 0.0, 0.0, 0, true, 0.0)
	f.Add(100.0, 10.0, 0.1, int64(1), int64(10), 1e308, 0.0, 4, false, 0.0)
	f.Add(100.0, 10.0, 0.1, int64(1), int64(10), 2.0, 30.0, 5, false, math.NaN())
	f.Fuzz(func(t *testing.T, durationS, intervalS, rate float64, minBytes, maxBytes int64,
		baseS, maxS float64, attempts int, aggregate bool, satMTBFS float64) {
		sc := Scenario{
			DurationS: durationS, SnapshotIntervalS: intervalS, PerUserRate: rate,
			MinBytes: minBytes, MaxBytes: maxBytes,
			Retry: routing.Backoff{BaseS: baseS, MaxS: maxS, MaxAttempts: attempts},
		}
		if aggregate {
			sc.Aggregate = fluid.Config{Users: 1000}
		}
		if satMTBFS != 0 {
			sc.Faults = faults.Default()
			sc.Faults.SatMTBFS = satMTBFS
		}
		if sc.Validate() != nil {
			return
		}
		for name, v := range map[string]float64{"duration": durationS, "interval": intervalS} {
			if !(v > 0) || math.IsInf(v, 1) {
				t.Fatalf("accepted %s %v", name, v)
			}
		}
		if math.IsNaN(rate) || math.IsInf(rate, 0) || (!aggregate && rate <= 0) {
			t.Fatalf("accepted rate %v (aggregate %v)", rate, aggregate)
		}
		if satMTBFS != 0 && !sc.Faults.Enabled() {
			t.Fatalf("accepted satellite MTBF %v that disables injection", satMTBFS)
		}
		// Delays never decrease (FuzzBackoffDelay), so the first and the
		// last bound the whole schedule.
		for _, i := range []int{0, attempts - 1} {
			if d, ok := sc.Retry.DelayS(i); ok && (!(d >= 0) || math.IsInf(d, 1)) {
				t.Fatalf("accepted retry %+v yields delay %v at attempt %d", sc.Retry, d, i)
			}
		}
	})
}

func TestRunScenarioEndToEnd(t *testing.T) {
	n := scenarioNetwork(t)
	sc := Scenario{
		DurationS:         900,
		SnapshotIntervalS: 60,
		PerUserRate:       0.05, // ~45 transfers per user over 15 min
		MinBytes:          1_000_000,
		MaxBytes:          100_000_000,
		Seed:              9,
	}
	res, err := n.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TransfersAttempted == 0 {
		t.Fatal("no transfers attempted")
	}
	// Full Iridium: essentially everything should deliver.
	if res.DeliveryRate() < 0.9 {
		t.Errorf("delivery rate %v", res.DeliveryRate())
	}
	if res.LatencyS.Count() != res.TransfersDelivered {
		t.Errorf("latency samples %d vs delivered %d", res.LatencyS.Count(), res.TransfersDelivered)
	}
	if res.LatencyS.Mean() <= 0 || res.LatencyS.Mean() > 2 {
		t.Errorf("mean latency %v s implausible", res.LatencyS.Mean())
	}
	// 15 minutes of LEO must force handovers for someone.
	if res.Handovers == 0 {
		t.Error("no handovers in 15 minutes of LEO motion")
	}
	if res.CarriageUSD <= 0 || res.GatewayUSD <= 0 {
		t.Errorf("fees not accumulated: carriage %v gateway %v", res.CarriageUSD, res.GatewayUSD)
	}
	if res.EventsProcessed == 0 {
		t.Error("engine processed nothing")
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	sc := Scenario{
		DurationS: 300, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1000, MaxBytes: 1_000_000, Seed: 4,
	}
	a, err := scenarioNetwork(t).RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenarioNetwork(t).RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.TransfersAttempted != b.TransfersAttempted ||
		a.TransfersDelivered != b.TransfersDelivered ||
		a.BytesDelivered != b.BytesDelivered ||
		a.Handovers != b.Handovers {
		t.Errorf("scenario not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestRunScenarioWithFaults drives the workload through an aggressive fault
// environment: satellites die, terminals re-associate, transfers retry with
// backoff — and traffic still flows.
func TestRunScenarioWithFaults(t *testing.T) {
	n := scenarioNetwork(t)
	sc := Scenario{
		DurationS:         900,
		SnapshotIntervalS: 60,
		PerUserRate:       0.05,
		MinBytes:          1_000_000,
		MaxBytes:          100_000_000,
		Seed:              9,
		Faults:            faults.Default().Scale(40), // MTBFs shrunk 40×
	}
	res, err := n.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultEvents == 0 {
		t.Fatal("40× default fault rates over 15 min produced no fault events")
	}
	if res.TransfersDelivered == 0 {
		t.Error("no transfer survived the fault environment")
	}
	if res.DroppedTerminals == 0 {
		t.Error("satellite failures at this rate should drop someone's terminal")
	}
	if res.LatencyS.Count() != res.TransfersDelivered {
		t.Errorf("latency samples %d vs delivered %d", res.LatencyS.Count(), res.TransfersDelivered)
	}
}

// TestRunScenarioFaultsDeterministic pins the fault path's reproducibility:
// two identical fault-enabled runs agree on every counter.
func TestRunScenarioFaultsDeterministic(t *testing.T) {
	sc := Scenario{
		DurationS: 300, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1000, MaxBytes: 1_000_000, Seed: 4,
		Faults: faults.Default().Scale(40),
	}
	a, err := scenarioNetwork(t).RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenarioNetwork(t).RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault scenario not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestRunScenarioDisabledFaultsAreNoOp proves the overlay machinery is
// invisible when no fault class is enabled: a scenario with an explicitly
// disabled fault config (and a retry policy, which must be ignored) matches
// the plain scenario result field for field.
func TestRunScenarioDisabledFaultsAreNoOp(t *testing.T) {
	base := Scenario{
		DurationS: 300, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1000, MaxBytes: 1_000_000, Seed: 4,
	}
	withOff := base
	withOff.Faults = faults.Default().Scale(0) // every class disabled
	withOff.Retry.MaxAttempts = 7              // must be ignored without faults
	a, err := scenarioNetwork(t).RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenarioNetwork(t).RunScenario(withOff)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("disabled faults changed the run:\n%+v\n%+v", a, b)
	}
	if a.FaultEvents != 0 || a.Retries != 0 || a.AbandonedTransfers != 0 {
		t.Errorf("fault counters nonzero without faults: %+v", a)
	}
}

func TestRunScenarioErrors(t *testing.T) {
	n := scenarioNetwork(t)
	if _, err := n.RunScenario(Scenario{}); err == nil {
		t.Error("invalid scenario should fail")
	}
	empty, err := NewNetwork(threeProviderConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{DurationS: 10, SnapshotIntervalS: 5, PerUserRate: 1, MinBytes: 1, MaxBytes: 2}
	if _, err := empty.RunScenario(sc); err == nil {
		t.Error("scenario without users should fail")
	}
}
