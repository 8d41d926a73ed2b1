package routing

import (
	"fmt"
	"math"
)

// Protected is a flow with fast-reroute protection: a set of precomputed
// edge-disjoint candidate paths (DisjointPaths) plus the path currently
// carrying traffic. Because the candidates share no edge, any single ISL
// failure leaves at least one of them intact — the §4 redundancy argument
// turned into a repair mechanism: when the active path dies, Reroute
// switches to the first surviving candidate without touching the (possibly
// partitioned) routing substrate.
type Protected struct {
	Src, Dst string
	// Paths are the precomputed edge-disjoint candidates in cost order.
	Paths []Path

	current    Path
	currentIdx int // index into Paths, or -1 after Adopt
}

// Protect computes up to k edge-disjoint paths for the flow on the
// searcher's snapshot, cost and mask, and installs the cheapest as the
// active path. k must be ≥ 1; at least one path must exist (ErrNoPath
// otherwise). One searcher can protect any number of flows.
func (sr *Searcher) Protect(src, dst string, k int) (*Protected, error) {
	if k < 1 {
		return nil, fmt.Errorf("routing: protect: k %d must be ≥ 1", k)
	}
	paths, err := sr.DisjointPaths(src, dst, k)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
	}
	return &Protected{Src: src, Dst: dst, Paths: paths, current: paths[0], currentIdx: 0}, nil
}

// OnBackup reports whether the flow has left its primary (cheapest) path —
// either rerouted to a backup or running on an adopted recomputed path.
func (p *Protected) OnBackup() bool { return p.currentIdx != 0 }

// Reroute switches the flow to the first candidate that alive accepts,
// scanning in cost order (so a repaired primary is preferred over a longer
// backup); alive(i) judges Paths[i]. It returns the chosen candidate's
// index, and false when no candidate survives — the caller must then fall
// back to a full recompute on the degraded snapshot (Adopt) or declare the
// flow down.
func (p *Protected) Reroute(alive func(i int) bool) (int, bool) {
	for i, c := range p.Paths {
		if alive(i) {
			p.current, p.currentIdx = c, i
			return i, true
		}
	}
	return 0, false
}

// Adopt installs a recomputed path (found on the degraded topology after
// every precomputed candidate died) as the active path. The precomputed
// candidates are kept: a later Reroute can still return to them once
// repairs land.
func (p *Protected) Adopt(path Path) {
	p.current, p.currentIdx = path, -1
}

// Backoff yields bounded, deterministic retry delays for the on-demand
// admission path: instead of failing a flow outright when no route exists
// (a transient condition under fault injection — the blocking outage will
// be repaired), callers retry after DelayS(attempt). The schedule is
// exponential with a cap and carries no jitter: retries are part of the
// simulation and must be byte-reproducible, and the discrete-event engine
// breaks same-instant ties deterministically, so jitter would buy nothing.
type Backoff struct {
	// BaseS is the first retry delay.
	BaseS float64
	// MaxS caps the exponential growth.
	MaxS float64
	// MaxAttempts bounds the retries; DelayS reports false beyond it.
	MaxAttempts int
}

// DefaultBackoff retries 5 times over ~an outage-repair timescale:
// 2 s, 4 s, 8 s, 16 s, 30 s.
func DefaultBackoff() Backoff {
	return Backoff{BaseS: 2, MaxS: 30, MaxAttempts: 5}
}

// DelayS returns the delay before retry number attempt (0-based: attempt 0
// is the first retry, scheduled after the initial failure) and whether the
// retry budget allows it.
func (b Backoff) DelayS(attempt int) (float64, bool) {
	if attempt < 0 || attempt >= b.MaxAttempts || b.BaseS <= 0 {
		return 0, false
	}
	d := b.BaseS
	for i := 0; i < attempt; i++ {
		d *= 2
		if b.MaxS > 0 && d >= b.MaxS {
			return b.MaxS, true
		}
	}
	if b.MaxS > 0 && d > b.MaxS {
		d = b.MaxS
	}
	return d, true
}

// Validate rejects a schedule whose delays would not be finite,
// non-negative seconds: a NaN, infinite or negative BaseS or MaxS, or an
// uncapped (MaxS = 0) schedule whose last delay overflows.
func (b Backoff) Validate() error {
	if !(b.BaseS >= 0) || math.IsInf(b.BaseS, 1) || !(b.MaxS >= 0) || math.IsInf(b.MaxS, 1) {
		return fmt.Errorf("routing: backoff base %v s and cap %v s must be finite and non-negative", b.BaseS, b.MaxS)
	}
	if b.MaxS == 0 && b.MaxAttempts > 0 && math.IsInf(math.Ldexp(b.BaseS, b.MaxAttempts-1), 1) {
		return fmt.Errorf("routing: uncapped backoff from %v s overflows within %d attempts", b.BaseS, b.MaxAttempts)
	}
	return nil
}
