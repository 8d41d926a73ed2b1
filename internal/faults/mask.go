package faults

import (
	"fmt"

	"github.com/openspace-project/openspace/internal/sim"
)

// Mask is the set of currently failed elements, maintained incrementally
// as fault events start and end. It implements topo.Mask, so a snapshot
// degraded by the current fault state is one Overlay call away — no
// geometry rebuild. Overlapping outages on the same element are
// reference-counted: a satellite downed by both a storm and an independent
// hard failure stays down until both clear.
type Mask struct {
	nodes map[string]int
	edges map[[2]string]int
}

// NewMask returns an empty mask (nothing down).
func NewMask() *Mask {
	return &Mask{nodes: make(map[string]int), edges: make(map[[2]string]int)}
}

// edgeKey normalises an undirected link key.
func edgeKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Apply marks the event's target down.
func (m *Mask) Apply(ev Event) {
	if ev.Node != "" {
		m.nodes[ev.Node]++
		return
	}
	m.edges[edgeKey(ev.From, ev.To)]++
}

// Clear marks the event's target repaired.
func (m *Mask) Clear(ev Event) {
	if ev.Node != "" {
		if m.nodes[ev.Node]--; m.nodes[ev.Node] <= 0 {
			delete(m.nodes, ev.Node)
		}
		return
	}
	key := edgeKey(ev.From, ev.To)
	if m.edges[key]--; m.edges[key] <= 0 {
		delete(m.edges, key)
	}
}

// NodeDown reports whether the node is failed.
func (m *Mask) NodeDown(id string) bool { return m.nodes[id] > 0 }

// EdgeDown reports whether the undirected link between from and to is
// failed.
func (m *Mask) EdgeDown(from, to string) bool { return m.edges[edgeKey(from, to)] > 0 }

// Walk implements topo.Mask. Every entry is down: Clear deletes an entry
// when its count reaches zero.
func (m *Mask) Walk(node func(id string), link func(a, b string)) {
	for id := range m.nodes {
		node(id)
	}
	for k := range m.edges {
		link(k[0], k[1])
	}
}

// Empty implements topo.Mask.
func (m *Mask) Empty() bool { return len(m.nodes) == 0 && len(m.edges) == 0 }

// Down returns the number of failed nodes and links.
func (m *Mask) Down() (nodes, edges int) { return len(m.nodes), len(m.edges) }

// PathDown reports whether any node or hop of the node sequence is failed.
func (m *Mask) PathDown(nodes []string) bool {
	if m.Empty() {
		return false
	}
	for i, id := range nodes {
		if m.NodeDown(id) {
			return true
		}
		if i+1 < len(nodes) && m.EdgeDown(id, nodes[i+1]) {
			return true
		}
	}
	return false
}

// Drive schedules the timeline onto the engine: at each event's start the
// mask applies it, at its end (when inside the horizon) the mask clears
// it, and onChange — if non-nil — runs after every mask update with the
// event and its new state (down true at start, false at repair).
//
// The schedule is streamed rather than queued whole. Drive reserves two
// sequence numbers per event, base+2i for event i's start and base+2i+1
// for its repair, and queues only the first start; each start queues its
// own repair and the next start when it fires. Every event therefore
// enters the queue under the (time, seq) key it would have had if all of
// them were scheduled up front in timeline order, and it enters before
// that key can come due: a repair is no earlier than its start, and the
// next start no earlier than this one. The delivery order is the eager
// schedule's — same-instant faults apply in the order Generate sorted
// them into — while the queue holds one pending start plus the live
// repairs instead of every event. That needs events sorted by StartS
// with EndS ≥ StartS, as Generate builds them; Drive rejects any other
// timeline. The callbacks read the timeline's events in place, so it must
// not change while the engine runs.
func (tl *Timeline) Drive(e *sim.Engine, m *Mask, onChange func(e *sim.Engine, ev Event, down bool)) error {
	if m == nil {
		return fmt.Errorf("faults: drive needs a mask")
	}
	evs, horizonS := tl.Events, tl.HorizonS
	for i := range evs {
		if evs[i].EndS < evs[i].StartS || (i > 0 && evs[i].StartS < evs[i-1].StartS) {
			return fmt.Errorf("faults: drive needs events sorted by start and ending no earlier; event %d is not", i)
		}
	}
	if len(evs) == 0 {
		return nil
	}
	base := e.Reserve(2 * len(evs))
	must := func(err error) {
		if err != nil {
			panic(err) // times and sequence numbers were checked above
		}
	}
	var start func(i int) func(*sim.Engine)
	start = func(i int) func(*sim.Engine) {
		return func(e *sim.Engine) {
			ev := &evs[i]
			if ev.EndS < horizonS { // repairs beyond the horizon are never observed
				must(e.ScheduleSeq(ev.EndS, base+2*uint64(i)+1, func(e *sim.Engine) {
					m.Clear(*ev)
					if onChange != nil {
						onChange(e, *ev, false)
					}
				}))
			}
			if i+1 < len(evs) {
				must(e.ScheduleSeq(evs[i+1].StartS, base+2*uint64(i+1), start(i+1)))
			}
			m.Apply(*ev)
			if onChange != nil {
				onChange(e, *ev, true)
			}
		}
	}
	return e.ScheduleSeq(evs[0].StartS, base, start(0))
}
