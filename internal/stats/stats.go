// Package stats provides the small set of descriptive statistics used
// throughout Scrutinizer: percentiles of frequency distributions (Table 1),
// means, standard deviations, entropy, and online accumulators for the
// simulation harness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using the
// nearest-rank method, matching the way the paper reports Table 1. It
// returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return nearestRank(sortedCopy(xs), p)
}

// Percentiles evaluates several percentile levels in one pass over a single
// sorted copy of xs; each level equals Percentile(xs, level).
func Percentiles(xs []float64, levels []float64) []float64 {
	out := make([]float64, len(levels))
	if len(xs) == 0 {
		return out
	}
	sorted := sortedCopy(xs)
	for i, p := range levels {
		out[i] = nearestRank(sorted, p)
	}
	return out
}

func sortedCopy(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted
}

// nearestRank reads the p-th percentile from non-empty sorted samples: the
// ceil(p/100·n)-th smallest, with p clamped to [0, 100].
func nearestRank(sorted []float64, p float64) float64 {
	p = min(max(p, 0), 100)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Entropy returns the Shannon entropy (nats) of a probability distribution.
// Probabilities that are zero or negative contribute nothing. The
// distribution does not need to be normalised; it is normalised internally
// so that classifier scores can be passed directly.
func Entropy(probs []float64) float64 {
	// Scale by the maximum first so that very large inputs cannot overflow
	// the normalising sum; entropy is invariant under positive scaling.
	var maxP float64
	for _, p := range probs {
		if p > maxP && !math.IsInf(p, 1) && !math.IsNaN(p) {
			maxP = p
		}
	}
	if maxP <= 0 {
		return 0
	}
	var total float64
	for _, p := range probs {
		if p > 0 && !math.IsInf(p, 1) && !math.IsNaN(p) {
			total += p / maxP
		}
	}
	if total <= 0 {
		return 0
	}
	var h float64
	for _, p := range probs {
		if p <= 0 || math.IsInf(p, 1) || math.IsNaN(p) {
			continue
		}
		q := p / maxP / total
		h -= q * math.Log(q)
	}
	return h
}

// Accumulator incrementally tracks count, mean, min, max and variance using
// Welford's algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Count returns the number of observations recorded.
func (a *Accumulator) Count() int { return a.n }

// Mean returns the running mean, or 0 before any observation.
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation, or 0 before any observation.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 before any observation.
func (a *Accumulator) Max() float64 { return a.max }

// StdDev returns the running population standard deviation.
func (a *Accumulator) StdDev() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n))
}

// String summarises the accumulator for logging.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f max=%.4f",
		a.n, a.Mean(), a.StdDev(), a.Min(), a.Max())
}

// Histogram buckets observations into fixed-width bins; the simulation uses
// it for complexity/time plots (Fig. 6).
type Histogram struct {
	Lo, Hi float64
	Bins   []Accumulator
}

// NewHistogram creates a histogram over [lo, hi) with n bins.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]Accumulator, n)}
}

// Observe records value y for key x; x selects the bin, y is accumulated.
// Out-of-range x is clamped to the closest bin.
func (h *Histogram) Observe(x, y float64) {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	i := int((x - h.Lo) / w)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	h.Bins[i].Add(y)
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + w*(float64(i)+0.5)
}
