package main

import (
	"fmt"
	"math"
	"sort"
)

// samples is a raw series of measurements in one unit. Quantiles are
// computed exactly from the raw values (nearest rank), never from
// bucketed histograms.
type samples []float64

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile of s (0 < q <= 1): the
// smallest sample with at least a q share of the samples at or below
// it. It returns NaN for an empty series.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	x := s.sorted()
	r := int(math.Ceil(q * float64(len(x))))
	if r < 1 {
		r = 1
	}
	if r > len(x) {
		r = len(x)
	}
	return x[r-1]
}

func (s samples) max() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	m := s[0]
	for _, v := range s[1:] {
		m = math.Max(m, v)
	}
	return m
}

// tailLevels are the percentiles a tail may be reported at, lowest
// first.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// supportedTail returns the highest tail level with at least ten
// samples strictly beyond it among n samples, or 0 when even the
// median has fewer than ten beyond it.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLevels {
		beyond := n - int(math.Ceil(p*float64(n)))
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// percentLabel renders 0.999 as "p99.9".
func percentLabel(p float64) string {
	return "p" + trimFloat(100*p)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
