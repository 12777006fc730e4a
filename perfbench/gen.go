package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// The benchmark makes its own inputs so that a change to the program's
// trace synthesiser or payload helper cannot change what is measured. The
// laws match the paper's MediSyn-style workloads: lognormal object sizes
// (sigma 0.7) rescaled to an exact mean, and a flattened-head Zipf
// popularity P(rank r) ∝ (r+1+q)^-s with s = 3, where the plateau q is a
// fraction of the population (0.125 is the medium locality).

const (
	zipfS      = 3.0
	sizeSigma  = 0.7
	plateauMed = 0.125
)

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: mix(seed*0x9e3779b97f4a7c15 + stream*0xd1b54a32d192ed03 + 1)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// dataset is a fixed object population: sizes plus a popularity law.
type dataset struct {
	sizes []int
	total int64
	// order[r] is the object at popularity rank r; cdf is over ranks.
	order []int
	cdf   []float64
}

// sizeStrata is the number of size strata popularity ranks cycle through.
const sizeStrata = 16

// newDataset draws n object sizes with the given mean and a random
// rank-to-object assignment, so popularity is independent of size.
//
// The rank assignment is stratified too: ranks come in blocks of sizeStrata, and
// each block takes one object from every size stratum (objects sorted by
// size, cut into sizeStrata equal groups) in random order. Each rank's
// size is still a uniform draw from the whole population, but the total
// size of the popular head no longer swings with the seed; with a few dozen
// hot objects that swing would otherwise dominate the spread between runs.
func newDataset(seed uint64, n int, mean int, plateau float64) *dataset {
	r := newRNG(seed, 1)
	mu := math.Log(float64(mean)) - sizeSigma*sizeSigma/2
	// Sizes are stratified draws: object i takes the lognormal quantile at
	// a uniformly jittered point of its own 1/n slice of probability, and
	// slices are dealt to objects at random. The population is lognormal
	// as before, but its largest objects, which set the latency tails, are
	// nearly the same for every seed.
	slice := make([]int, n)
	for i := range slice {
		slice[i] = i
	}
	shuffle(r, slice)
	raw := make([]float64, n)
	var sum float64
	for i := range raw {
		p := (float64(slice[i]) + r.float()) / float64(n)
		if p <= 0 {
			p = 0.5 / float64(n)
		}
		z := math.Sqrt2 * math.Erfinv(2*p-1)
		raw[i] = math.Exp(mu + sizeSigma*z)
		sum += raw[i]
	}
	d := &dataset{sizes: make([]int, n), order: make([]int, 0, n), cdf: make([]float64, n)}
	scale := float64(mean) * float64(n) / sum
	for i, v := range raw {
		s := int(v * scale)
		if s < 1 {
			s = 1
		}
		d.sizes[i] = s
		d.total += int64(s)
	}
	bySize := make([]int, n)
	for i := range bySize {
		bySize[i] = i
	}
	sort.Slice(bySize, func(a, b int) bool { return d.sizes[bySize[a]] < d.sizes[bySize[b]] })
	strata := make([][]int, sizeStrata)
	for k := range strata {
		strata[k] = bySize[k*n/sizeStrata : (k+1)*n/sizeStrata]
		shuffle(r, strata[k])
	}
	perm := make([]int, sizeStrata)
	for len(d.order) < n {
		for k := range perm {
			perm[k] = k
		}
		shuffle(r, perm)
		for _, k := range perm {
			if len(strata[k]) > 0 {
				d.order = append(d.order, strata[k][0])
				strata[k] = strata[k][1:]
			}
		}
	}
	q := plateau * float64(n)
	var acc float64
	for k := range d.cdf {
		acc += math.Pow(float64(k+1)+q, -zipfS)
		d.cdf[k] = acc
	}
	for k := range d.cdf {
		d.cdf[k] /= acc
	}
	return d
}

func shuffle(r *rng, v []int) {
	for i := len(v) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		v[i], v[j] = v[j], v[i]
	}
}

// sample draws an object by popularity.
func (d *dataset) sample(r *rng) int {
	u := r.float()
	lo, hi := 0, len(d.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return d.order[lo]
}

// payloadWord is word i of object obj at version ver.
func payloadWord(seed uint64, obj, ver int, i int) uint64 {
	return mix(seed ^ uint64(obj)<<24 ^ uint64(ver)<<48 ^ uint64(i)*0x9e3779b97f4a7c15)
}

// fillPayload writes the content of (obj, ver) into dst.
func fillPayload(dst []byte, seed uint64, obj, ver int) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], payloadWord(seed, obj, ver, i>>3))
	}
	if i < len(dst) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], payloadWord(seed, obj, ver, i>>3))
		copy(dst[i:], tail[:])
	}
}

// checkPayload reports whether b is exactly the content of (obj, ver) at
// the given size.
func checkPayload(b []byte, seed uint64, obj, ver, size int) bool {
	if len(b) != size {
		return false
	}
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != payloadWord(seed, obj, ver, i>>3) {
			return false
		}
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], payloadWord(seed, obj, ver, i>>3))
		for k := i; k < len(b); k++ {
			if b[k] != tail[k-i] {
				return false
			}
		}
	}
	return true
}
