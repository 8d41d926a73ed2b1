package exec

import (
	"os"
	"testing"
)

// allocGate skips unless the zero-allocation gates are explicitly enabled
// (OPENSPACE_ALLOC_GATE=1, as CI's alloc-gate step does).
func allocGate(t *testing.T) {
	t.Helper()
	if os.Getenv("OPENSPACE_ALLOC_GATE") == "" {
		t.Skip("set OPENSPACE_ALLOC_GATE=1 to run the zero-allocation gates")
	}
}

// TestAllocGateScratchReseed pins the //lint:hotpath contract on the
// scratch source: a Reseed and enough draws to pass the register fill at
// draw 273 allocate nothing, the first time included.
func TestAllocGateScratchReseed(t *testing.T) {
	allocGate(t)
	rng := ScratchRNG()
	i := int64(0)
	if avg := testing.AllocsPerRun(50, func() {
		i++
		Reseed(rng, 3, i)
		for range 2 * rngLen {
			rng.Int63()
		}
	}); avg != 0 {
		t.Fatalf("scratch reseed and %d draws allocate %.2f times, want 0", 2*rngLen, avg)
	}
}

// TestAllocGateRegisterReuse: a fresh generator allocates its register at
// its first fill only; reseeding it and drawing past the next fill
// reuses the register.
func TestAllocGateRegisterReuse(t *testing.T) {
	allocGate(t)
	rng := RNG(5, 1)
	for range rngLen {
		rng.Int63()
	}
	i := int64(0)
	if avg := testing.AllocsPerRun(50, func() {
		i++
		rng.Seed(i)
		for range 2 * rngLen {
			rng.Int63()
		}
	}); avg != 0 {
		t.Fatalf("reseeding a filled generator and drawing past the fill allocates %.2f times, want 0", avg)
	}
}
