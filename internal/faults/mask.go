package faults

import (
	"errors"
	"fmt"
	"slices"

	"github.com/openspace-project/openspace/internal/sim"
)

// Mask is the set of currently failed elements of one timeline's Inputs,
// maintained incrementally as fault events start and end. It implements
// topo.Mask, so a snapshot degraded by the current fault state is one
// Overlay call away — no geometry rebuild. Outages are counted per element
// index: overlapping outages on the same element stack, so a satellite
// downed by both a storm and an independent hard failure stays down until
// both clear. A compact list of the down elements keeps Walk O(down).
// Drive binds a mask to its timeline's Inputs; an unbound mask is empty.
type Mask struct {
	in    *Inputs
	count []int32 // outages per element index
	at    []int32 // each down element's position in down; valid while count > 0
	down  []int32 // the down elements, in no particular order
}

// NewMask returns an empty mask (nothing down).
func NewMask() *Mask { return &Mask{} }

// bind sizes the mask to in's element index space. A mask already bound to
// in keeps its state; rebinding one that still holds faults is an error.
func (m *Mask) bind(in *Inputs) error {
	if m.in == in {
		return nil
	}
	if len(m.down) > 0 {
		return errors.New("faults: mask holds faults of another timeline")
	}
	n := in.elements()
	m.in, m.count, m.at = in, make([]int32, n), make([]int32, n)
	return nil
}

// apply marks element e down.
func (m *Mask) apply(e int32) {
	if m.count[e]++; m.count[e] == 1 {
		m.at[e] = int32(len(m.down))
		m.down = append(m.down, e)
	}
}

// repair clears one outage of element e.
func (m *Mask) repair(e int32) {
	if m.count[e]--; m.count[e] == 0 {
		last := m.down[len(m.down)-1]
		m.down[m.at[e]], m.at[last] = last, m.at[e]
		m.down = m.down[:len(m.down)-1]
	}
}

// NodeDown reports whether the satellite or ground station id is failed.
func (m *Mask) NodeDown(id string) bool {
	if m.in == nil {
		return false
	}
	if i, ok := slices.BinarySearch(m.in.Satellites, id); ok && m.count[i] > 0 {
		return true
	}
	i, ok := slices.BinarySearch(m.in.Grounds, id)
	return ok && m.count[len(m.in.Satellites)+i] > 0
}

// Walk implements topo.Mask, resolving each down element's name through
// the bound Inputs.
func (m *Mask) Walk(node func(id string), link func(a, b string)) {
	if m.Empty() {
		return
	}
	sats, nodes := len(m.in.Satellites), m.in.nodes()
	for _, e := range m.down {
		switch {
		case int(e) < sats:
			node(m.in.Satellites[e])
		case e < nodes:
			node(m.in.Grounds[int(e)-sats])
		default:
			isl := m.in.ISLs[e-nodes]
			link(isl[0], isl[1])
		}
	}
}

// Empty implements topo.Mask.
func (m *Mask) Empty() bool { return len(m.down) == 0 }

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
// timeline, or events that name no element of the timeline's Inputs, or
// Inputs out of their documented order. The callbacks read the timeline's
// events in place, so it must not change while the engine runs. Drive
// binds m to the timeline's Inputs, which Walk and NodeDown then resolve
// names through.
func (tl *Timeline) Drive(e *sim.Engine, m *Mask, onChange func(e *sim.Engine, ev Event, down bool)) error {
	if m == nil {
		return fmt.Errorf("faults: drive needs a mask")
	}
	in, evs, horizonS := &tl.Inputs, tl.Events, tl.HorizonS
	if err := in.check(); err != nil {
		return err
	}
	for i := range evs {
		if evs[i].EndS < evs[i].StartS || (i > 0 && evs[i].StartS < evs[i-1].StartS) {
			return fmt.Errorf("faults: drive needs events sorted by start and ending no earlier; event %d is not", i)
		}
		if in.element(evs[i]) < 0 {
			return fmt.Errorf("faults: event %d (%v %d) names no element of the timeline's inputs", i, evs[i].Kind, evs[i].Elem)
		}
	}
	if err := m.bind(in); err != nil {
		return err
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
	// Starts fire one at a time and in order, so one callback serves them
	// all, with next the index of the start that fires next.
	next := 0
	var start func(*sim.Engine)
	start = func(e *sim.Engine) {
		i := next
		next++
		ev := &evs[i]
		if ev.EndS < horizonS { // repairs beyond the horizon are never observed
			must(e.ScheduleSeq(ev.EndS, base+2*uint64(i)+1, func(e *sim.Engine) {
				m.repair(in.element(*ev))
				if onChange != nil {
					onChange(e, *ev, false)
				}
			}))
		}
		if i+1 < len(evs) {
			must(e.ScheduleSeq(evs[i+1].StartS, base+2*uint64(i+1), start))
		}
		m.apply(in.element(*ev))
		if onChange != nil {
			onChange(e, *ev, true)
		}
	}
	return e.ScheduleSeq(evs[0].StartS, base, start)
}
