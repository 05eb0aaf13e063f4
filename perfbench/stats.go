package main

import (
	"math"
	"math/rand"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile by
// the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads read the same as the acceptance
// arithmetic. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs and whether it is usable: at least ten samples must lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= 10
}

// bootstrapRatio resamples both sides with replacement and returns the
// ratio of medians num/den with its central 95% interval. The generator
// is seeded so a comparison prints the same interval every time.
func bootstrapRatio(num, den []float64, rounds int) (ratio, lo, hi float64) {
	ratio = median(num) / median(den)
	rng := rand.New(rand.NewSource(1))
	rs := make([]float64, rounds)
	a := make([]float64, len(num))
	b := make([]float64, len(den))
	for r := range rs {
		for i := range a {
			a[i] = num[rng.Intn(len(num))]
		}
		for i := range b {
			b[i] = den[rng.Intn(len(den))]
		}
		rs[r] = median(a) / median(b)
	}
	sort.Float64s(rs)
	lo = rs[int(0.025*float64(rounds))]
	hi = rs[int(0.975*float64(rounds))-1]
	return ratio, lo, hi
}
