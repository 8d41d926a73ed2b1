package sim

import (
	"math/rand"
	"testing"
)

// The engine's contract is delivery in (atS, seq) order: committed
// experiment CSVs depend on the exact sequence, not an equivalent one.
// These tests replay schedules through the heap and through a plain-slice
// reference that pops the linear-scan minimum, and require identical pop
// sequences.

// refQueue is the reference queue: an unordered slice.
type refQueue []event

func (r *refQueue) push(ev event) { *r = append(*r, ev) }
func (r *refQueue) pop() event {
	m := 0
	for i := range *r {
		if less((*r)[i], (*r)[m]) {
			m = i
		}
	}
	ev := (*r)[m]
	*r = append((*r)[:m], (*r)[m+1:]...)
	return ev
}

// comparePop pops one event from both queues and fails on any divergence.
func comparePop(t *testing.T, q *eventQueue, ref *refQueue) event {
	t.Helper()
	if q.Len() != len(*ref) {
		t.Fatalf("queue holds %d events, reference %d", q.Len(), len(*ref))
	}
	want, got := ref.pop(), q.pop()
	if got.atS != want.atS || got.seq != want.seq {
		t.Fatalf("pop order diverged: reference (%.9f, %d), heap (%.9f, %d)",
			want.atS, want.seq, got.atS, got.seq)
	}
	return got
}

// drain pops both queues empty, comparing every event.
func drain(t *testing.T, q *eventQueue, ref *refQueue) {
	t.Helper()
	for len(*ref) > 0 {
		comparePop(t, q, ref)
	}
	if q.Len() != 0 {
		t.Fatalf("heap retains %d events after drain", q.Len())
	}
}

func TestEventQueueMatchesReferenceBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		var ref refQueue
		n := 1 + rng.Intn(400)
		for seq := uint64(0); seq < uint64(n); seq++ {
			at := rng.Float64() * 1000
			if rng.Intn(4) == 0 {
				at = float64(rng.Intn(10)) // force equal-time collisions
			}
			q.push(event{atS: at, seq: seq})
			ref.push(event{atS: at, seq: seq})
		}
		drain(t, &q, &ref)
	}
}

func TestEventQueueMatchesReferenceInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		var q eventQueue
		var ref refQueue
		var seq uint64
		now := 0.0
		for op := 0; op < 2000; op++ {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				now = comparePop(t, &q, &ref).atS
				continue
			}
			// Mid-run insertion at or after the engine clock, the
			// pattern After produces (retries, handover ticks).
			at := now + rng.Float64()*50
			if rng.Intn(5) == 0 {
				at = now // equal-time burst at the current instant
			}
			q.push(event{atS: at, seq: seq})
			ref.push(event{atS: at, seq: seq})
			seq++
		}
		drain(t, &q, &ref)
	}
}

func TestEventQueueEqualTimeBurst(t *testing.T) {
	var q eventQueue
	// Thousands of events at one instant: order must be FIFO by seq.
	for seq := uint64(0); seq < 5000; seq++ {
		q.push(event{atS: 42, seq: seq})
	}
	for seq := uint64(0); seq < 5000; seq++ {
		if got := q.pop(); got.seq != seq {
			t.Fatalf("burst pop %d: got seq %d", seq, got.seq)
		}
	}
}

// TestEngineMatchesReferenceEngine runs a full self-scheduling program —
// events that reschedule themselves like handover ticks and retries — on
// the production engine and on a replica driven by the reference queue,
// and requires the two delivery logs to be identical.
func TestEngineMatchesReferenceEngine(t *testing.T) {
	type logEntry struct {
		at float64
		id int
	}
	// run schedules the program, lets drive deliver it, and returns the
	// delivery log; now reads the clock of the engine under test.
	run := func(trial int64, schedule func(float64, func()), now func() float64, drive func()) []logEntry {
		rng := rand.New(rand.NewSource(trial))
		var log []logEntry
		var tick func(id int) func()
		tick = func(id int) func() {
			return func() {
				log = append(log, logEntry{now(), id})
				if rng.Intn(3) > 0 {
					schedule(now()+rng.Float64()*30, tick(id*7+1))
				}
			}
		}
		for i := 0; i < 200; i++ {
			schedule(rng.Float64()*100, tick(i))
		}
		drive()
		return log
	}

	for trial := int64(0); trial < 10; trial++ {
		e := NewEngine()
		prod := run(trial, func(at float64, fn func()) {
			if err := e.Schedule(at, func(*Engine) { fn() }); err != nil {
				t.Fatal(err)
			}
		}, e.Now, func() { e.Run(400) })

		var ref refQueue
		var seq uint64
		clock := 0.0
		refl := run(trial, func(at float64, fn func()) {
			ref.push(event{atS: at, seq: seq, fn: func(*Engine) { fn() }})
			seq++
		}, func() float64 { return clock }, func() {
			for len(ref) > 0 {
				ev := ref.pop()
				if ev.atS > 400 {
					break
				}
				clock = ev.atS
				ev.fn(nil)
			}
		})

		if len(prod) != len(refl) {
			t.Fatalf("trial %d: delivered %d events, reference delivered %d", trial, len(prod), len(refl))
		}
		for i := range prod {
			if prod[i] != refl[i] {
				t.Fatalf("trial %d: delivery %d diverged: engine %+v, reference %+v",
					trial, i, prod[i], refl[i])
			}
		}
	}
}

// FuzzEventQueueOrder interprets fuzzer bytes as an op program over the
// heap and the reference: 3-byte (op, a, b) triples either push an event
// at a time derived from (a, b) — including duplicate times and times
// earlier than every queued event — or pop one event from each and
// compare. The seed corpus in testdata/fuzz covers bursts, widely spread
// times and pushes below the current minimum.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 10, 5, 0, 10, 5, 3, 0, 0, 0, 1, 1, 3, 0, 0})
	f.Add([]byte{0, 255, 255, 0, 0, 1, 3, 0, 0, 0, 0, 0, 3, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q eventQueue
		var ref refQueue
		var seq uint64
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			if op%4 == 3 {
				if len(ref) > 0 {
					comparePop(t, &q, &ref)
				}
				continue
			}
			// op%4 selects a time regime: dense, clustered, or far apart.
			at := float64(a)*0.5 + float64(b)*0.002
			switch op % 4 {
			case 1:
				at = float64(a % 8) // heavy equal-time collisions
			case 2:
				at = float64(a) * 1e5 // widely spread times
			}
			q.push(event{atS: at, seq: seq})
			ref.push(event{atS: at, seq: seq})
			seq++
		}
		drain(t, &q, &ref)
	})
}
