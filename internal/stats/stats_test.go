package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {10, 15}, {20, 15}, {25, 20}, {30, 20},
		{50, 35}, {75, 40}, {95, 50}, {99, 50}, {100, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
}

func TestPercentileEmptyAndSingle(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %g, want 0", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile([7], 99) = %g, want 7", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileClampsOutOfRange(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := Percentile(xs, -5); got != 1 {
		t.Errorf("Percentile(p<0) = %g, want min", got)
	}
	if got := Percentile(xs, 150); got != 3 {
		t.Errorf("Percentile(p>100) = %g, want max", got)
	}
	if got := Percentile(xs, math.Inf(1)); got != 3 {
		t.Errorf("Percentile(+Inf) = %g, want max", got)
	}
}

func TestPercentilesMultiLevel(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := Percentiles(xs, []float64{10, 50, 99})
	want := []float64{1, 5, 10}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Errorf("Percentiles[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestPercentilesMatchesPercentile pins the sort-once Percentiles to
// per-level Percentile calls, levels out of range and empty input included.
func TestPercentilesMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	levels := []float64{math.Inf(-1), -5, 0, 0.5, 10, 25, 33.3, 50, 75, 90, 95, 99, 99.9, 100, 150, math.Inf(1)}
	for trial := 0; trial < 100; trial++ {
		xs := make([]float64, trial%23)
		for i := range xs {
			xs[i] = math.Round(rng.NormFloat64()*10) / 2 // ties included
		}
		orig := append([]float64(nil), xs...)
		got := Percentiles(xs, levels)
		if len(got) != len(levels) {
			t.Fatalf("%d levels, %d results", len(levels), len(got))
		}
		for i, p := range levels {
			if want := Percentile(xs, p); got[i] != want {
				t.Fatalf("Percentiles(%v)[%g] = %g, Percentile = %g", xs, p, got[i], want)
			}
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("input mutated: %v, was %v", xs, orig)
			}
		}
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, p uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		q := Percentile(xs, float64(p%101))
		return q >= lo && q <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			q := Percentile(xs, p)
			if q < prev {
				t.Fatalf("percentile not monotone at p=%g: %g < %g", p, q, prev)
			}
			prev = q
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5) {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := StdDev(xs); !almost(got, 2) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/singleton cases should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Max(xs) != 5 || Min(xs) != -1 {
		t.Errorf("Max/Min = %g/%g", Max(xs), Min(xs))
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty Max/Min should be 0")
	}
}

func TestEntropyUniformIsLogN(t *testing.T) {
	for n := 1; n <= 16; n *= 2 {
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = 1.0 / float64(n)
		}
		if got, want := Entropy(probs), math.Log(float64(n)); !almost(got, want) {
			t.Errorf("Entropy(uniform %d) = %g, want %g", n, got, want)
		}
	}
}

func TestEntropyDegenerate(t *testing.T) {
	if got := Entropy([]float64{1, 0, 0}); !almost(got, 0) {
		t.Errorf("Entropy(point mass) = %g, want 0", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("Entropy(nil) = %g, want 0", got)
	}
	if got := Entropy([]float64{0, 0}); got != 0 {
		t.Errorf("Entropy(zeros) = %g, want 0", got)
	}
}

func TestEntropyNormalises(t *testing.T) {
	a := Entropy([]float64{1, 1, 2})
	b := Entropy([]float64{0.25, 0.25, 0.5})
	if !almost(a, b) {
		t.Errorf("unnormalised %g != normalised %g", a, b)
	}
}

func TestEntropyNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		probs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			probs[i] = math.Abs(v)
		}
		return Entropy(probs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	var acc Accumulator
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		acc.Add(xs[i])
	}
	if acc.Count() != 500 {
		t.Fatalf("Count = %d", acc.Count())
	}
	if !almost(acc.Mean(), Mean(xs)) {
		t.Errorf("Mean: acc %g vs batch %g", acc.Mean(), Mean(xs))
	}
	if math.Abs(acc.StdDev()-StdDev(xs)) > 1e-9 {
		t.Errorf("StdDev: acc %g vs batch %g", acc.StdDev(), StdDev(xs))
	}
	if acc.Min() != Min(xs) || acc.Max() != Max(xs) {
		t.Errorf("Min/Max mismatch")
	}
}

func TestAccumulatorZeroValue(t *testing.T) {
	var acc Accumulator
	if acc.Mean() != 0 || acc.StdDev() != 0 || acc.Count() != 0 {
		t.Error("zero-value accumulator should report zeros")
	}
	acc.Add(5)
	if acc.Min() != 5 || acc.Max() != 5 || acc.Mean() != 5 {
		t.Error("single observation mishandled")
	}
	if acc.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Observe(1, 100)   // bin 0
	h.Observe(9.9, 200) // bin 4
	h.Observe(-5, 1)    // clamped to bin 0
	h.Observe(42, 2)    // clamped to bin 4
	if h.Bins[0].Count() != 2 || h.Bins[4].Count() != 2 {
		t.Errorf("bin counts: %d, %d", h.Bins[0].Count(), h.Bins[4].Count())
	}
	if !almost(h.BinCenter(0), 1) || !almost(h.BinCenter(4), 9) {
		t.Errorf("bin centers: %g, %g", h.BinCenter(0), h.BinCenter(4))
	}
}

func TestHistogramDegenerateConstruction(t *testing.T) {
	h := NewHistogram(5, 5, 0) // invalid hi and n
	h.Observe(5, 1)
	if h.Bins[0].Count() != 1 {
		t.Error("degenerate histogram should still accept observations")
	}
}
