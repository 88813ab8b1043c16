// Package workload provides deterministic input generators for the LDDP
// case studies and experiments: random strings, grayscale images, cost
// grids, and time series. All generators are seeded and reproducible —
// repeated runs of any experiment consume byte-identical inputs.
package workload

// RNG is a splitmix64 pseudo-random generator. It is tiny, fast, has a
// one-word state, and — unlike math/rand — its output sequence is fixed by
// this package, so experiment inputs can never drift with a toolchain
// upgrade.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// gamma is splitmix64's state increment: draw k (1-based) of a
// generator seeded with s is mix(s + k*gamma), so any draw can be
// computed without the ones before it.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// mix is splitmix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
