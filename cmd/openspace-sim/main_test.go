package main

import (
	"math"
	"testing"
)

func TestCheckInputs(t *testing.T) {
	if err := checkInputs(100_000_000, 1); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := checkInputs(1, 0); err != nil {
		t.Errorf("intensity 0 (faults off) rejected: %v", err)
	}
	for _, bytes := range []int64{0, -1} {
		if checkInputs(bytes, 1) == nil {
			t.Errorf("-bytes %d accepted", bytes)
		}
	}
	for _, intensity := range []float64{math.NaN(), -1, math.Inf(1), math.Inf(-1)} {
		if checkInputs(1, intensity) == nil {
			t.Errorf("-intensity %v accepted", intensity)
		}
	}
}
