package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Task ties a span to the exec task it ran in (-1 outside any task);
// Replay marks a re-run of a nested public call made after the timed
// phase, which is kept out of its parent's self time.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Task   int           `json:"task"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Replay bool          `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans and counts in memory; spans are written out only
// when the run ends, so tracing costs one clock read and one locked
// append per span.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// begin opens a span; the returned value is closed with end.
func (t *tracer) begin(name string, parent int64, task int) span {
	return span{ID: t.nextID.Add(1), Parent: parent, Task: task, Name: name, Start: time.Since(t.epoch)}
}

func (t *tracer) end(s span) {
	s.End = time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) snapshotCounts() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// dump writes every span as JSON, sorted by ID.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(a, b int) bool { return t.spans[a].ID < t.spans[b].ID })
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once — children on concurrent workers overlap.
func covered(lo, hi time.Duration, iv [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range clipped {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes maps each span ID to its duration minus the part of its
// interval that its non-replay children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]time.Duration{}
	for _, s := range spans {
		if !s.Replay {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}
