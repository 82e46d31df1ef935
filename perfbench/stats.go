package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to mean anything: a p90 needs at least 100 samples.
const minBeyond = 10

// tailPercentiles are the percentiles highestTail chooses among.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// rank is the 1-based nearest rank of the p-th percentile of n samples:
// the smallest count with at least p% of the samples. The epsilon keeps
// decimal percentiles such as 99.9 from rounding up a whole rank.
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[min(max(rank(len(sorted), p)-1, 0), len(sorted)-1)]
}

// beyond counts the samples strictly past the p-th percentile of n.
func beyond(n int, p float64) int { return n - rank(n, p) }

// highestTail returns the highest of tailPercentiles that leaves at least
// minBeyond samples beyond it, its value, and the sample count. ok is
// false when even the median leaves fewer than minBeyond samples.
func highestTail(samples []float64) (p, value float64, n int, ok bool) {
	sorted := sortedCopy(samples)
	n = len(sorted)
	for _, q := range tailPercentiles {
		if beyond(n, q) >= minBeyond {
			p, ok = q, true
		}
	}
	if !ok {
		return 0, math.NaN(), n, false
	}
	return p, percentile(sorted, p), n, true
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (the mean of the middle two for an even count).
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// splitmix64 is the benchmark's seeded generator: every size, partner
// and payload derives from it, so one seed always yields one input set.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a uniformly random permutation of [0, n).
func (r *splitmix64) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func (r *splitmix64) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// logSizes returns n sizes log-uniform on [lo, hi] in a seeded order:
// the geometric midpoints of n equal slices of the log range, shuffled.
// Every seed gets the same sizes, so seeds differ in order, partners
// and payloads, and run-to-run percentiles stay put.
func (r *splitmix64) logSizes(n, lo, hi int) []int {
	out := make([]int, n)
	span := math.Log(float64(hi) / float64(lo))
	for i := range out {
		u := (float64(i) + 0.5) / float64(n)
		out[i] = int(math.Round(float64(lo) * math.Exp(u*span)))
	}
	r.shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
