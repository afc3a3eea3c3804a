package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the method
// of Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), which is how run-to-run spreads of this benchmark are judged.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// Python's integer arithmetic, including its clamp of j to
		// 1..n-1 (which extrapolates for very small n).
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailLadder is the set of percentiles the tail rule may report, lowest
// first, in tenths of a percent (exact integer ranks).
var tailLadder = []int{500, 900, 990, 999}

// tail applies the benchmark's tail rule: the highest ladder percentile
// that has at least ten samples beyond it, by nearest rank. ok is false
// when no ladder percentile qualifies — always so below 11 samples, and
// so below 20 with this ladder — in which case there is no tail to report.
func tail(xs []float64) (value, pct float64, beyond int, ok bool) {
	s := sorted(xs)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		q := tailLadder[i]
		rank := max(1, (q*n+999)/1000) // nearest rank: ceil(q/1000 × n)
		if n-rank >= 10 {
			return s[rank-1], float64(q) / 10, n - rank, true
		}
	}
	return 0, 0, 0, false
}
