package exec

import "math/rand"

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 generator: a
// bijective avalanche mix whose output bits all depend on all input bits.
// It is the standard seed-derivation primitive (Vigna recommends it for
// seeding xoshiro/xoroshiro state) and is what makes hierarchical seeds
// collision-resistant here.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Seed derives a child seed from a base seed and the task's logical
// coordinates (e.g. sweep point, trial index). The derivation is a
// SplitMix64 hash chain, so distinct coordinate tuples map to distinct
// seeds (collisions need ~2^32 tuples by birthday bound; sweeps here are
// thousands) and the result depends only on (base, coords), never on
// worker scheduling.
func Seed(base int64, coords ...int64) int64 {
	x := splitmix64(uint64(base))
	for _, c := range coords {
		x = splitmix64(x ^ splitmix64(uint64(c)))
	}
	return int64(x)
}

// RNG returns a rand.Rand owned by the task at the given coordinates.
// Tasks must not share RNGs: one RNG per Map index is what keeps parallel
// sweeps bitwise identical to serial ones.
func RNG(base int64, coords ...int64) *rand.Rand {
	return newRand(Seed(base, coords...))
}

// A Domain names one independent family of RNG streams. The Tag is the
// stream family's repo-unique identity — by convention
// "<package>/<stream>" — and is what the seeddomain analyzer checks for
// duplicates, closing the loophole where a copy-pasted numeric domain
// silently correlates two supposedly independent streams. The ID is the
// coordinate actually folded into the SplitMix64 chain: a package
// adopting a Tag for a stream that already had a numeric domain keeps its
// old ID, so every committed result stays byte-identical.
//
// Declare domains as package-level variables with literal fields:
//
//	var domainArrivals = exec.Domain{Tag: "fluid/arrivals", ID: 3}
//
// Both fields must be literals — the analyzer cannot vouch for a tag it
// cannot read — and both must be unique across the repository.
type Domain struct {
	Tag string
	ID  int64
}

// DomainSeed derives a child seed namespaced by the domain. It is
// definitionally Seed(base, d.ID, coords...): the tag documents and
// de-duplicates the stream family, the ID feeds the hash chain.
func DomainSeed(base int64, d Domain, coords ...int64) int64 {
	x := splitmix64(uint64(base))
	x = splitmix64(x ^ splitmix64(uint64(d.ID)))
	for _, c := range coords {
		x = splitmix64(x ^ splitmix64(uint64(c)))
	}
	return int64(x)
}

// DomainRNG returns a rand.Rand drawing from the domain-tagged stream at
// the given coordinates — the blessed way for an internal package to
// construct a generator of its own.
func DomainRNG(base int64, d Domain, coords ...int64) *rand.Rand {
	return newRand(DomainSeed(base, d, coords...))
}

// Reseed re-derives rng's stream in place: after Reseed(rng, base, c...)
// the generator produces exactly the sequence RNG(base, c...) would, but
// without constructing a new source. Hot loops that need a fresh stream
// per (element, epoch) hang one scratch generator off their receiver and
// Reseed it instead of allocating two objects per draw site.
func Reseed(rng *rand.Rand, base int64, coords ...int64) {
	rng.Seed(Seed(base, coords...)) //nolint:staticcheck // in-place reseed is the point: same stream as rand.New(rand.NewSource(seed)), zero allocations
}

// ScratchRNG returns a generator whose initial stream is meaningless: it
// exists to be Reseed-ed before every use. Like every generator here its
// source seeds lazily, so a Reseed costs a few stores, and it owns its
// register from the start, so no draw after a Reseed allocates.
func ScratchRNG() *rand.Rand {
	src := &scratchSource{lazySource{vec: new([rngLen]uint64)}}
	src.Seed(0)
	return rand.New(src)
}

// newRand returns a generator over a lazySource seeded with seed: the
// stream rand.New(rand.NewSource(seed)) yields, for a few stores instead
// of a 607-word register fill.
func newRand(seed int64) *rand.Rand {
	src := new(lazySource)
	src.Seed(seed)
	return rand.New(src)
}

// math/rand's generator (rngSource) is an additive lagged Fibonacci
// generator over a 607-word register. Its Seed runs the Park–Miller
// generator x ← 48271·x mod (2³¹−1) from the seed, 20 steps of warm-up,
// then packs three consecutive states into each register word, XORed with
// a fixed mask (rngCooked): word i is x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^
// cooked[i], where xₖ = x₀·48271ᵏ mod (2³¹−1).
const (
	rngLen = 607
	rngTap = 273
	lcgMod = 1<<31 - 1
	lcgMul = 48271
)

var (
	lcgPow    [3*rngLen + 21]uint64 // lcgPow[k] = 48271ᵏ mod (2³¹−1)
	rngCooked [rngLen]uint64        // math/rand's register mask
)

// init tabulates the powers and recovers math/rand's mask from its own
// output rather than copying its table: the first rngLen draws of seed 1
// determine the initial register, and XORing seed 1's packed states back
// out of it leaves the mask.
func init() {
	lcgPow[0] = 1
	for k := 1; k < len(lcgPow); k++ {
		lcgPow[k] = lcgPow[k-1] * lcgMul % lcgMod
	}
	ref := rand.NewSource(1).(rand.Source64)
	var z, vec [rngLen]uint64
	for n := range z {
		z[n] = ref.Uint64()
	}
	// Draw n adds register word (333−n) mod 607 to the word draw n−273
	// wrote, so draws 273…606 give each untouched feed word by difference;
	// draws 0…272 add two untouched words, the second of them now known.
	for n := rngTap; n < rngLen; n++ {
		vec[(2*rngLen-rngTap-1-n)%rngLen] = z[n] - z[n-rngTap]
	}
	for n := 0; n < rngTap; n++ {
		vec[rngLen-rngTap-1-n] = z[n] - vec[rngLen-1-n]
	}
	seed1 := lazySource{x0: 1}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ seed1.packed(i)
	}
}

// lazySource is math/rand's rngSource with a lazy Seed. Draw n < 273 of a
// fresh register is word 333−n plus word 606−n, neither of which an
// earlier draw has overwritten, so Seed stores only x₀ and the first 273
// draws compute their two words on demand. Draw 273 is the first to read
// a word a draw wrote: there the source fills the register as Seed would
// and replays the 273 draws already served, so every longer stream is
// exact too. The register itself is allocated at that first fill and
// reused by every later one, so a generator that draws fewer than 273
// values never holds one.
type lazySource struct {
	x0        uint64 // Park–Miller state the seed maps to, in [1, 2³¹−2]
	n         int    // draws served, counted up to the fill at rngTap
	tap, feed int    // the generator's state once n > rngTap
	vec       *[rngLen]uint64
}

// Seed maps the seed to x₀ exactly as rngSource.Seed does, including its
// substitution for seeds ≡ 0 mod 2³¹−1.
func (s *lazySource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.n = uint64(seed), 0
}

// packed returns register word i before the mask: its three Park–Miller
// states packed as rngSource.Seed packs them.
func (s *lazySource) packed(i int) uint64 {
	p := lcgPow[3*i+21 : 3*i+24]
	return (s.x0*p[0]%lcgMod)<<40 ^ (s.x0*p[1]%lcgMod)<<20 ^ s.x0*p[2]%lcgMod
}

// Uint64 implements rand.Source64. The first fill allocates the
// register; a reseed keeps it for the next.
func (s *lazySource) Uint64() uint64 {
	if s.vec == nil && s.n == rngTap {
		s.vec = new([rngLen]uint64)
	}
	return s.draw()
}

// draw serves the next value; the register must exist by draw rngTap.
func (s *lazySource) draw() uint64 {
	switch n := s.n; {
	case n < rngTap:
		s.n++
		i, j := rngLen-rngTap-1-n, rngLen-1-n
		return (s.packed(i) ^ rngCooked[i]) + (s.packed(j) ^ rngCooked[j])
	case n == rngTap:
		s.n++
		for i := range s.vec {
			s.vec[i] = s.packed(i) ^ rngCooked[i]
		}
		s.tap, s.feed = 0, rngLen-rngTap
		for range rngTap {
			s.step()
		}
	}
	return s.step()
}

// step is rngSource.Uint64: one lagged Fibonacci draw.
func (s *lazySource) step() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// scratchSource is the lazySource behind ScratchRNG. Its register is
// allocated with it, so no draw of any stream it is reseeded to allocates.
type scratchSource struct{ lazySource }

// Uint64 implements rand.Source64.
//
//lint:hotpath
func (s *scratchSource) Uint64() uint64 { return s.draw() }

// Int63 implements rand.Source.
//
//lint:hotpath
func (s *scratchSource) Int63() int64 { return int64(s.draw() & (1<<63 - 1)) }
