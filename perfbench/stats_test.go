package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},  // exactly 10 beyond the median
		{39, 50, true},  // p75 would leave 9.75
		{40, 75, true},  // p75 leaves exactly 10
		{100, 90, true}, // the tenant-churn size at 10 s
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{1e6, 99.9, true}, // never beyond the highest candidate
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailFallsBackToMax(t *testing.T) {
	v, p := tail([]float64{3, 9, 1})
	if v != 9 || p != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the maximum 9 at p100", v, p)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, p := tail(xs); p != 90 || math.Abs(v-89.1) > 1e-9 {
		t.Errorf("tail of 0..99 = %v at p%v, want 89.1 at p90", v, p)
	}
}

func TestBlocksAndBestBlock(t *testing.T) {
	item := func(claims int, busyMS int, lat ...float64) workItem {
		return workItem{claims: claims, busy: time.Duration(busyMS) * time.Millisecond, lat: lat}
	}
	items := []workItem{
		item(10, 1000, 1, 2, 3), item(10, 1000, 4, 5, 6), // block 0: 20 claims in 2 client-seconds
		item(10, 500, 1, 1, 1), item(10, 500, 1, 1, 9), // block 1: the fast one
		item(10, 2000, 7, 8, 9), item(10, 2000, 7, 8, 9), // block 2: the slow one
	}
	bs := blocks(items, 3, 2)
	if len(bs) != 3 {
		t.Fatalf("%d blocks, want 3", len(bs))
	}
	// Two clients in flight: 20 claims over 2 s of per-client busy time
	// is 10 claims/s per client, 20 in total.
	if math.Abs(bs[0].rate-20) > 1e-9 || math.Abs(bs[1].rate-40) > 1e-9 {
		t.Errorf("block rates = %v, %v; want 20, 40", bs[0].rate, bs[1].rate)
	}
	if bs[0].p50 != 3.5 || bs[0].n != 6 {
		t.Errorf("block 0 p50 = %v over %d samples, want 3.5 over 6", bs[0].p50, bs[0].n)
	}
	best := bestBlock(bs)
	if math.Abs(best.rate-40) > 1e-9 || best.p50 != 1 {
		t.Errorf("best = %+v, want rate 40 and p50 1", best)
	}
	// Each figure takes its own best block: block 1's max is 9, block
	// 0's is 6.
	if best.tail != 6 || best.tailP != 100 {
		t.Errorf("best tail = %v at p%v, want 6 at p100", best.tail, best.tailP)
	}
	if got := blocks(items[:2], 10, 1); len(got) != 2 {
		t.Errorf("more blocks than items: got %d blocks, want 2", len(got))
	}
	// An uneven split still covers every item exactly once.
	n := 0
	for _, b := range blocks(items[:5], 3, 1) {
		n += b.n
	}
	if n != 15 {
		t.Errorf("uneven split covers %d samples, want 15", n)
	}
}
