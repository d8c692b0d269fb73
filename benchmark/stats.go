package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted (ascending) by nearest rank:
// the ceil(q*n)-th smallest value. sorted must not be empty.
func quantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// tailQuantiles are the candidates highestQuantile chooses from.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestQuantile returns the highest candidate quantile that still has
// at least ten of n samples beyond it (0 when not even the median has):
// a percentile resting on fewer samples is one slow request, not a
// property of the system.
func highestQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		if beyond := float64(n) * (1 - q); beyond >= 10-1e-6 { // 100*(1-0.9) is 9.999999999999998
			best = q
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// summary is what a repeated cell reports: the count behind the figures,
// the median, and the quartiles (nearest rank).
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := sortedCopy(v)
	return summary{N: len(s), Median: median(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// geomean returns the geometric mean of v; 0 if v is empty or holds a
// non-positive value (a failed cell must not vanish from the mean).
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(v)))
}

// ratio returns a/b, or 0 when b is 0, so a layer that did no work
// reports 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
