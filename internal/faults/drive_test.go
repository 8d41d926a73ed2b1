package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
)

// driveEager is the schedule Drive used to file: every start and every
// in-horizon repair queued up front, in timeline order, into the
// string-keyed oracle mask. It is the oracle the streamed Drive must match
// delivery for delivery.
func driveEager(tl *Timeline, e *sim.Engine, m *stringMask, onChange func(*sim.Engine, Event, bool)) error {
	for _, ev := range tl.Events {
		ev := ev
		if err := e.Schedule(ev.StartS, func(e *sim.Engine) {
			m.Apply(&tl.Inputs, ev)
			onChange(e, ev, true)
		}); err != nil {
			return err
		}
		if ev.EndS >= tl.HorizonS {
			continue
		}
		if err := e.Schedule(ev.EndS, func(e *sim.Engine) {
			m.Clear(&tl.Inputs, ev)
			onChange(e, ev, false)
		}); err != nil {
			return err
		}
	}
	return nil
}

// delivery is one observed engine callback.
type delivery struct {
	atS    float64
	what   string // a fault kind, or "pre", "post", "after" for other events
	target string
	down   bool
}

// randomTimeline draws a sorted timeline over testInputs on a half-second
// grid, so many events share an instant and sums of times stay exact:
// storm bursts that down several satellites at one StartS, zero-length
// outages, and repairs at or past the horizon.
func randomTimeline(rng *rand.Rand) *Timeline {
	horizon := float64(4 + rng.Intn(30))
	grid := func(limit float64) float64 { return float64(rng.Intn(int(2*limit))) / 2 }
	in := testInputs()
	var evs []Event
	for n := rng.Intn(40); len(evs) < n; {
		start := grid(horizon)
		end := func() float64 { return start + grid(horizon) }
		switch rng.Intn(4) {
		case 0:
			for i := range in.Satellites {
				if rng.Intn(2) == 0 {
					evs = append(evs, Event{Kind: KindStorm, Elem: int32(i), StartS: start, EndS: end()})
				}
			}
		case 1:
			evs = append(evs, Event{Kind: KindSatFailure, Elem: int32(rng.Intn(len(in.Satellites))), StartS: start, EndS: end()})
		case 2:
			evs = append(evs, Event{Kind: KindISLFlap, Elem: int32(rng.Intn(len(in.ISLs))), StartS: start, EndS: end()})
		default:
			evs = append(evs, Event{Kind: KindGroundOutage, Elem: int32(rng.Intn(len(in.Grounds))), StartS: start, EndS: end()})
		}
	}
	slices.SortFunc(evs, compareEvents)
	return &Timeline{HorizonS: horizon, Inputs: in, Events: evs}
}

// runDrive drives tl through a fresh engine with one of the two schedulers,
// which returns the mask it drives, and returns every delivery. An event queued before the drive and one
// filed after it sit on fault instants, and each fault's onChange uses
// After to land a callback exactly on a later fault instant, so the
// timeline's events tie with events from every other source.
func runDrive(t *testing.T, tl *Timeline, seed int64, drive func(*Timeline, *sim.Engine, func(*sim.Engine, Event, bool)) (topo.Mask, error)) ([]delivery, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var instants []float64
	for _, ev := range tl.Events {
		instants = append(instants, ev.StartS)
		if ev.EndS < tl.HorizonS {
			instants = append(instants, ev.EndS)
		}
	}
	e := sim.NewEngine()
	var log []delivery
	record := func(what string) func(*sim.Engine) {
		return func(e *sim.Engine) { log = append(log, delivery{atS: e.Now(), what: what}) }
	}
	if err := e.Schedule(instants[rng.Intn(len(instants))], record("pre")); err != nil {
		t.Fatal(err)
	}
	onChange := func(e *sim.Engine, ev Event, down bool) {
		node, isl := target(&tl.Inputs, ev)
		log = append(log, delivery{e.Now(), ev.Kind.String(), node + isl[0] + "|" + isl[1], down})
		if at := instants[rng.Intn(len(instants))]; at >= e.Now() && rng.Intn(2) == 0 {
			if err := e.After(at-e.Now(), record("after")); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, err := drive(tl, e, onChange)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(instants[rng.Intn(len(instants))], record("post")); err != nil {
		t.Fatal(err)
	}
	e.Run(tl.HorizonS / 2)
	e.Run(tl.HorizonS)
	log = append(log, delivery{atS: e.Now(), what: fmt.Sprintf("final mask %v", downSet(m))})
	return log, e.Processed
}

// TestDriveStreamsEagerOrder is the streamed Drive's ordering argument as
// a property: over random timelines, its delivery sequence — time, kind,
// target and state of every fault transition, interleaved with unrelated
// events at the same instants — equals the eager schedule's, and the
// index-keyed mask ends holding what the string-keyed oracle holds.
func TestDriveStreamsEagerOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	eager := func(tl *Timeline, e *sim.Engine, f func(*sim.Engine, Event, bool)) (topo.Mask, error) {
		m := newStringMask()
		return m, driveEager(tl, e, m, f)
	}
	streamed := func(tl *Timeline, e *sim.Engine, f func(*sim.Engine, Event, bool)) (topo.Mask, error) {
		m := NewMask()
		return m, tl.Drive(e, m, f)
	}
	for trial := 0; trial < 300; trial++ {
		tl := randomTimeline(rng)
		if len(tl.Events) == 0 {
			continue
		}
		want, wantN := runDrive(t, tl, int64(trial), eager)
		got, gotN := runDrive(t, tl, int64(trial), streamed)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: streamed deliveries diverged from the eager schedule:\n got %v\nwant %v", trial, got, want)
		}
		if gotN != wantN {
			t.Fatalf("trial %d: processed %d events, eager %d", trial, gotN, wantN)
		}

		e := sim.NewEngine()
		if err := tl.Drive(e, NewMask(), nil); err != nil {
			t.Fatal(err)
		}
		if e.Pending() != 1 {
			t.Fatalf("trial %d: %d events queued right after Drive, want the first start only", trial, e.Pending())
		}
	}
}

// TestDriveRejectsUnsortedTimelines: streaming relies on starts in order
// and repairs no earlier than their start, and the mask on events that
// name an element of the timeline's Inputs, so Drive refuses anything else
// before it queues an event.
func TestDriveRejectsUnsortedTimelines(t *testing.T) {
	for name, evs := range map[string][]Event{
		"starts out of order": {
			{Kind: KindSatFailure, Elem: 0, StartS: 5, EndS: 6},
			{Kind: KindSatFailure, Elem: 1, StartS: 4, EndS: 6},
		},
		"repair before start": {
			{Kind: KindSatFailure, Elem: 0, StartS: 5, EndS: 4},
		},
		"satellite out of range": {
			{Kind: KindSatFailure, Elem: 4, StartS: 5, EndS: 6},
		},
		"ISL out of range": {
			{Kind: KindISLFlap, Elem: -1, StartS: 5, EndS: 6},
		},
		"unknown kind": {
			{Kind: Kind(9), Elem: 0, StartS: 5, EndS: 6},
		},
	} {
		e := sim.NewEngine()
		tl := &Timeline{HorizonS: 10, Inputs: testInputs(), Events: evs}
		if err := tl.Drive(e, NewMask(), nil); err == nil {
			t.Errorf("%s: Drive accepted the timeline", name)
		}
		if e.Pending() != 0 {
			t.Errorf("%s: Drive queued %d events before rejecting", name, e.Pending())
		}
	}
	e := sim.NewEngine()
	if err := (&Timeline{HorizonS: 10}).Drive(e, NewMask(), nil); err != nil || e.Pending() != 0 {
		t.Errorf("empty timeline: err %v, %d queued; want nothing", err, e.Pending())
	}
	// A mask still holding one timeline's faults cannot take another's.
	held := driveTo(t, &Timeline{HorizonS: 10, Inputs: testInputs(), Events: []Event{
		{Kind: KindSatFailure, Elem: 0, StartS: 1, EndS: 20},
	}}, 5)
	if err := (&Timeline{HorizonS: 10, Inputs: testInputs()}).Drive(sim.NewEngine(), held, nil); err == nil {
		t.Error("Drive rebound a mask that still holds another timeline's faults")
	}
}
