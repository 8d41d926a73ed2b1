// Package sim provides the discrete-event simulation substrate for
// OpenSpace experiments: a deterministic event engine, metric accumulators
// (histograms/percentiles and bounded-memory sketches), and the workload
// generators that stand in for the user populations and traffic patterns
// the paper's §5(1) notes would require "extensive simulation tools not
// explored in this paper".
package sim

import (
	"errors"
	"fmt"
)

// Event is a scheduled callback.
type event struct {
	atS float64
	seq uint64 // FIFO tie-break for equal times → determinism
	fn  func(*Engine)
}

// Engine is a single-threaded discrete-event simulator. Events scheduled
// for the same instant run in scheduling order, so simulations are fully
// deterministic. The queue is a binary min-heap over (time, scheduling
// sequence), a total order, so dequeue order is fixed by the schedule
// alone (see queue.go and its property tests).
type Engine struct {
	now    float64
	seq    uint64
	events eventQueue
	// Processed counts delivered events, for loop-guard assertions.
	Processed uint64
	// MaxEvents, when non-zero, is the simulated-event budget: Run
	// refuses to deliver more than this many events over the engine's
	// lifetime. The budget is the deterministic, wall-clock-free analogue
	// of a timeout — it depends only on the event sequence, never on host
	// speed or scheduling, so a run that exhausts it does so identically
	// on every machine and at every worker count. Exhausted reports
	// whether Run stopped on it.
	MaxEvents uint64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// errNilEvent is hoisted to a sentinel so the hot Schedule path carries
// no per-call error construction.
var errNilEvent = errors.New("sim: nil event function")

// Schedule enqueues fn at absolute time atS. Scheduling in the past is an
// error — it would silently reorder causality.
//
//lint:hotpath
func (e *Engine) Schedule(atS float64, fn func(*Engine)) error {
	if err := e.file(atS, e.seq, fn); err != nil {
		return err
	}
	e.seq++
	return nil
}

// Reserve sets aside n consecutive sequence numbers and returns the
// first. An event later filed under one of them with ScheduleSeq takes
// the (time, seq) place it would have had if Schedule had filed it at the
// moment of the Reserve, so a producer can stream a long schedule into
// the queue one event at a time without changing the delivery order.
func (e *Engine) Reserve(n int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("sim: reserve of %d sequence numbers", n))
	}
	base := e.seq
	e.seq += uint64(n)
	return base
}

// ScheduleSeq enqueues fn at absolute time atS under a sequence number
// taken from an earlier Reserve. Each reserved number must be used at
// most once; the engine checks only that it was reserved.
func (e *Engine) ScheduleSeq(atS float64, seq uint64, fn func(*Engine)) error {
	if seq >= e.seq {
		return fmt.Errorf("sim: sequence number %d was never reserved", seq)
	}
	return e.file(atS, seq, fn)
}

// file checks an event and pushes it under the given sequence number.
func (e *Engine) file(atS float64, seq uint64, fn func(*Engine)) error {
	if fn == nil {
		return errNilEvent
	}
	if atS < e.now {
		//lint:allow hotalloc cold causality-violation path, never taken in steady state
		return fmt.Errorf("sim: schedule at %.3f is before now %.3f", atS, e.now)
	}
	e.events.push(event{atS: atS, seq: seq, fn: fn})
	return nil
}

// After enqueues fn delayS seconds from now.
func (e *Engine) After(delayS float64, fn func(*Engine)) error {
	if delayS < 0 {
		return fmt.Errorf("sim: negative delay %.3f", delayS)
	}
	return e.Schedule(e.now+delayS, fn)
}

// Run executes events in time order until the queue empties, the clock
// passes untilS (events after untilS stay queued and the clock is left at
// untilS), or the MaxEvents budget is exhausted (the clock is left at the
// last delivered event). The step loop itself allocates nothing; what the
// event callbacks allocate is their own business.
//
//lint:hotpath
func (e *Engine) Run(untilS float64) {
	for e.events.Len() > 0 {
		if e.MaxEvents > 0 && e.Processed >= e.MaxEvents {
			return
		}
		if e.events.min().atS > untilS {
			e.now = untilS
			return
		}
		next := e.events.pop()
		e.now = next.atS
		e.Processed++
		next.fn(e)
	}
	if e.now < untilS {
		e.now = untilS
	}
}

// Pending returns the number of queued events.
//
//lint:allow unreached internal/faults/drive_test.go counts what Timeline.Drive queues through it
func (e *Engine) Pending() int { return e.events.Len() }

// Exhausted reports whether the engine has spent its MaxEvents budget —
// the signal that a Run stopped on the simulated-event timeout rather
// than draining its queue or reaching the horizon.
func (e *Engine) Exhausted() bool { return e.MaxEvents > 0 && e.Processed >= e.MaxEvents }
