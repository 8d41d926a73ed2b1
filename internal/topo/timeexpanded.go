package topo

import (
	"fmt"
	"math"

	"github.com/openspace-project/openspace/internal/exec"
)

// TimeExpanded is a series of snapshots at a fixed cadence — the network's
// public, precomputable evolution (§2.2). Proactive routing computes paths
// on each snapshot ahead of time; the handover layer reads consecutive
// snapshots to pick successors.
//
// A built series holds its snapshots and is immutable. A series returned
// by Overlay builds each degraded snapshot on first read (see Overlay).
type TimeExpanded struct {
	StartS    float64
	IntervalS float64
	snaps     []*Snapshot // the built series; nil on an overlay
	over      *overlaid   // nil on a built series
}

// timeExpandedBlock is how many consecutive snapshots share one
// incremental builder. Within a block the builder's candidate lists carry
// over between steps (delta updates); blocks are fixed-size and
// independent, so the series is identical at any worker count and every
// snapshot is byte-identical to a from-scratch Build at its timestamp.
const timeExpandedBlock = 16

// BuildTimeExpanded constructs snapshots at startS, startS+intervalS, …
// covering [startS, startS+horizonS]. Steps are grouped into contiguous
// blocks that run in parallel on cfg.Workers workers (one per CPU when
// ≤0); within a block each snapshot is a delta update of its predecessor
// rather than a full rebuild. Results are collected in time order and are
// identical at any worker count.
func BuildTimeExpanded(startS, horizonS, intervalS float64, cfg Config, sats []SatSpec, grounds []GroundSpec, users []UserSpec) (*TimeExpanded, error) {
	if !(intervalS > 0) || math.IsInf(intervalS, 1) {
		return nil, fmt.Errorf("topo: interval %.1f must be positive and finite", intervalS)
	}
	if !(horizonS >= 0) || math.IsInf(horizonS, 1) {
		return nil, fmt.Errorf("topo: horizon %.1f must be non-negative and finite", horizonS)
	}
	if math.IsNaN(startS) || math.IsInf(startS, 0) {
		return nil, fmt.Errorf("topo: start %.1f must be finite", startS)
	}
	steps := int(horizonS/intervalS) + 1
	blocks := (steps + timeExpandedBlock - 1) / timeExpandedBlock
	blockSnaps, err := exec.Map(cfg.Workers, blocks, func(bi int) ([]*Snapshot, error) {
		lo := bi * timeExpandedBlock
		hi := lo + timeExpandedBlock
		if hi > steps {
			hi = steps
		}
		b := newBuilder(cfg, sats, grounds, users)
		out := make([]*Snapshot, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, b.SnapshotAt(startS+float64(i)*intervalS))
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	snaps := make([]*Snapshot, 0, steps)
	for _, bs := range blockSnaps {
		snaps = append(snaps, bs...)
	}
	return &TimeExpanded{StartS: startS, IntervalS: intervalS, snaps: snaps}, nil
}

// Len returns the number of snapshots in the series.
func (te *TimeExpanded) Len() int {
	if te.over != nil {
		return len(te.over.views)
	}
	return len(te.snaps)
}

// Snap returns snapshot i, 0 ≤ i < Len(). On an overlay the first read of
// an index builds its view; it is safe for concurrent use.
func (te *TimeExpanded) Snap(i int) *Snapshot {
	if te.over != nil {
		return te.over.view(i)
	}
	return te.snaps[i]
}

// At returns the snapshot in force at time t: the latest snapshot whose
// time is ≤ t, clamped to the series bounds.
func (te *TimeExpanded) At(t float64) *Snapshot {
	n := te.Len()
	if n == 0 {
		return nil
	}
	idx := int((t - te.StartS) / te.IntervalS)
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return te.Snap(idx)
}

// EndS returns the time of the last snapshot. An overlay keeps its base's
// times, so asking builds no view.
func (te *TimeExpanded) EndS() float64 {
	if te.over != nil {
		return te.over.base.EndS()
	}
	if len(te.snaps) == 0 {
		return te.StartS
	}
	return te.snaps[len(te.snaps)-1].TimeS
}
