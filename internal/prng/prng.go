// Package prng provides a deterministic, splittable pseudo-random number
// generator for reproducible simulations.
//
// All randomness in a simulation run flows from a single root seed through
// named child streams (one per peer, per adversary, per damage process, and
// so on), so that a run is reproducible bit-for-bit regardless of event
// interleaving or Go version. The generator is xoshiro256** seeded via
// splitmix64, following the reference construction by Blackman and Vigna.
package prng

import (
	"math"
	"math/bits"
	"slices"
)

// Source is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; derive independent child streams with Child instead of
// sharing one Source across goroutines.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns the next output. It is used
// only to seed and split xoshiro streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams with overwhelming probability.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Child derives an independent stream identified by name. Calling Child with
// the same name on an equivalent Source always yields the same stream, and
// does not perturb the parent.
func (r *Source) Child(name string) *Source {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	// Mix the parent state in without advancing it.
	h ^= r.s[0] ^ bits.RotateLeft64(r.s[2], 19)
	return New(h)
}

// ChildN derives an independent stream identified by a name and an index,
// convenient for per-peer or per-AU streams.
func (r *Source) ChildN(name string, n int) *Source {
	c := r.Child(name)
	sm := c.s[0] ^ uint64(n)*0x9e3779b97f4a7c15
	return New(splitmix64(&sm))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("prng: Int63n called with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n) using Lemire's
// nearly-divisionless method with rejection to remove modulo bias.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// ExpFloat64 returns an exponentially distributed value with the given mean.
// A mean of zero or less returns zero.
func (r *Source) ExpFloat64(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	// Inverse CDF; clamp u away from 0 to avoid +Inf.
	u := r.Float64()
	if u < 1e-300 {
		u = 1e-300
	}
	return -mean * math.Log(u)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *Source) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the given swap function (Fisher–Yates).
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. If k >= n it returns a full permutation.
func (r *Source) Sample(n, k int) []int {
	return r.SampleInto(nil, n, k)
}

// SampleInto is Sample reusing dst's backing array when it has capacity. The
// random draws are identical to Sample's, so the two are interchangeable
// without perturbing the stream.
func (r *Source) SampleInto(dst []int, n, k int) []int {
	if k >= n {
		if cap(dst) < n {
			dst = make([]int, n)
		}
		dst = dst[:n]
		for i := range dst {
			dst[i] = i
		}
		r.ShuffleInts(dst)
		return dst
	}
	// Partial Fisher–Yates over the virtual array a[i] = i: only displaced
	// positions are stored, as (index, value) pairs scanned linearly. At most
	// k exist; the protocol's k is a circle or reference-list size, so only an
	// adversary's population-sized draw outgrows the stack array.
	type pair struct{ i, v int }
	var buf [64]pair
	moved := buf[:0]
	find := func(i int) int {
		return slices.IndexFunc(moved, func(m pair) bool { return m.i == i })
	}
	if cap(dst) < k {
		dst = make([]int, k)
	}
	dst = dst[:k]
	for i := range dst {
		j := i + r.Intn(n-i)
		vi := i
		if at := find(i); at >= 0 {
			vi = moved[at].v
		}
		if at := find(j); at >= 0 {
			dst[i], moved[at].v = moved[at].v, vi
		} else {
			dst[i] = j
			if j != i { // position i itself is never read again
				moved = append(moved, pair{j, vi})
			}
		}
	}
	return dst
}
