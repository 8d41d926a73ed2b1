package sim

// eventQueue is the engine's event set: a binary min-heap ordered by
// (atS, seq). seq is unique, so the order is total and the dequeue
// sequence is a pure function of the scheduled events — the same order
// any correct priority queue over that key produces.
type eventQueue struct {
	// h is owner-scoped heap storage rewritten in place by push and pop;
	// nothing aliasing it may leave the queue (scratchsafe).
	h []event //lint:scratch
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.h) }

// min returns the earliest event; the queue must not be empty.
func (q *eventQueue) min() event { return q.h[0] }

// push files an event and sifts it up to its place.
func (q *eventQueue) push(ev event) {
	q.h = append(q.h, ev)
	for i := len(q.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !less(q.h[i], q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

// pop removes and returns the earliest event; the queue must not be empty.
func (q *eventQueue) pop() event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = event{} // drop the callback so the closure can be collected
	q.h = q.h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && less(q.h[r], q.h[m]) {
			m = r
		}
		if !less(q.h[m], q.h[i]) {
			break
		}
		q.h[i], q.h[m] = q.h[m], q.h[i]
		i = m
	}
	return top
}

// less is the engine's total event order: time, then scheduling sequence.
func less(a, b event) bool {
	if a.atS != b.atS { //lint:allow floateq exact order tie broken by seq keeps event order deterministic
		return a.atS < b.atS
	}
	return a.seq < b.seq
}
