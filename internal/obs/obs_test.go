package obs

import (
	"bufio"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the full exposition output for one registry
// exercising every instrument kind — the byte-for-byte contract /metrics
// serves to Prometheus.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_requests_total", "Requests handled.")
	c.Add(3)
	g := reg.NewGauge("test_inflight", "In-flight requests.")
	g.Set(2)
	g.Dec()
	cv := reg.NewCounterVec("test_errors_total", "Errors by route and code.", "route", "code")
	cv.With("verify", "500").Inc()
	cv.With("sessions", "400").Add(2)
	h := reg.NewHistogram("test_latency_seconds", "Request latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	reg.NewGaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 12 })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total 3
# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 1
# HELP test_errors_total Errors by route and code.
# TYPE test_errors_total counter
test_errors_total{route="sessions",code="400"} 2
test_errors_total{route="verify",code="500"} 1
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="10"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 55.55
test_latency_seconds_count 4
# HELP test_uptime_seconds Uptime.
# TYPE test_uptime_seconds gauge
test_uptime_seconds 12
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionValid parses the rendered output the way a scraper would:
// every series line must belong to a typed family, histogram suffixes
// included, and no series may appear twice.
func TestExpositionValid(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("a_total", "A.").Inc()
	reg.NewGaugeVec("b", "B.", "x").With("1").Set(4)
	reg.NewHistogramVec("c_seconds", "C.", ExpBuckets(0.001, 2, 4), "x").With("y").Observe(0.1)
	reg.NewCounterFunc("d_total", "D.", func() float64 { return 7 })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	types := map[string]string{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			t.Fatalf("blank line in exposition output")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suffix); ok && types[cut] == "histogram" {
				base = cut
			}
		}
		if _, ok := types[base]; !ok {
			t.Errorf("series %q has no TYPE line", name)
		}
		series := line[:strings.LastIndex(line, " ")]
		if seen[series] {
			t.Errorf("duplicate series %q", series)
		}
		seen[series] = true
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive bucket contract: a
// sample exactly on an upper bound counts in that bucket, one ulp above
// lands in the next, and everything past the last bound is +Inf-only.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	cases := []struct {
		v    float64
		want int // index into counts
	}{
		{0, 0},
		{1, 0},                              // on the first bound: le includes it
		{math.Nextafter(1, math.Inf(1)), 1}, // one ulp past
		{2, 1},
		{4, 2},
		{4.0000001, 3}, // +Inf bucket
		{math.Inf(1), 3},
		{-5, 0}, // below every bound: first bucket
	}
	for _, tc := range cases {
		before := make([]uint64, len(h.counts))
		for i := range h.counts {
			before[i] = h.counts[i].Load()
		}
		h.Observe(tc.v)
		for i := range h.counts {
			want := before[i]
			if i == tc.want {
				want++
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%v): counts[%d] = %d, want %d", tc.v, i, got, want)
			}
		}
	}
	if got := h.Count(); got != uint64(len(cases)) {
		t.Errorf("Count = %d, want %d", got, len(cases))
	}
}

// TestConcurrentExactCounts hammers every instrument kind from 16
// goroutines and asserts exact totals — the CAS loops and atomic adds must
// lose nothing under the race detector.
func TestConcurrentExactCounts(t *testing.T) {
	const workers = 16
	const perWorker = 2000
	reg := NewRegistry()
	c := reg.NewCounter("hammer_total", "H.")
	g := reg.NewGauge("hammer_gauge", "H.")
	h := reg.NewHistogram("hammer_seconds", "H.", []float64{0.5})
	cv := reg.NewCounterVec("hammer_vec_total", "H.", "worker")

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := cv.With(fmt.Sprintf("w%d", w))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(0.25)
				mine.Inc()
				// Interleave scrapes with writes: rendering must never
				// block or corrupt the instruments.
				if i%500 == 0 {
					var b strings.Builder
					if err := reg.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := c.Value(), float64(workers*perWorker); got != want {
		t.Errorf("counter = %v, want %v", got, want)
	}
	if got, want := g.Value(), float64(workers*perWorker)*0.5; got != want {
		t.Errorf("gauge = %v, want %v", got, want)
	}
	if got, want := h.Count(), uint64(workers*perWorker); got != want {
		t.Errorf("histogram count = %v, want %v", got, want)
	}
	if got, want := h.Sum(), float64(workers*perWorker)*0.25; got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
	for w := 0; w < workers; w++ {
		if got := cv.With(fmt.Sprintf("w%d", w)).Value(); got != perWorker {
			t.Errorf("vec series w%d = %v, want %d", w, got, perWorker)
		}
	}
}

// TestCardinalityBound pins the overflow behavior: past the per-vector
// series cap, every new label combination shares one "other" series and
// the series count stops growing.
func TestCardinalityBound(t *testing.T) {
	reg := NewRegistry()
	cv := reg.NewCounterVec("bounded_total", "B.", "tenant")
	reg.SetMaxSeries("bounded_total", 4)

	for i := 0; i < 20; i++ {
		cv.With(fmt.Sprintf("tenant-%d", i)).Inc()
	}
	// The first 4 tenants got their own series; tenants 4..19 folded.
	for i := 0; i < 4; i++ {
		if got := cv.With(fmt.Sprintf("tenant-%d", i)).Value(); got != 1 {
			t.Errorf("tenant-%d = %v, want 1", i, got)
		}
	}
	if got := cv.With("tenant-999").Value(); got != 16 {
		t.Errorf("overflow series = %v, want 16 (tenants 4..19)", got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "bounded_total{") {
			lines++
		}
	}
	if lines != 5 {
		t.Errorf("rendered %d series, want 5 (4 named + 1 %q):\n%s", lines, OverflowLabel, b.String())
	}
	if !strings.Contains(b.String(), `bounded_total{tenant="`+OverflowLabel+`"} 16`) {
		t.Errorf("missing overflow series:\n%s", b.String())
	}
}

// TestRegistryPanics pins the registration contract: duplicates and
// malformed names fail loudly at startup, not silently at scrape time.
func TestRegistryPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("ok_total", "ok")
	for name, fn := range map[string]func(){
		"duplicate name":       func() { reg.NewGauge("ok_total", "dup") },
		"invalid name":         func() { reg.NewCounter("bad name", "x") },
		"invalid label":        func() { reg.NewCounterVec("v_total", "x", "bad label") },
		"label count":          func() { reg.NewCounterVec("w_total", "x", "a").With("1", "2") },
		"unsorted buckets":     func() { reg.NewHistogram("h_seconds", "x", []float64{2, 1}) },
		"labelless vector":     func() { reg.NewCounterVec("x_total", "x") },
		"unknown SetMaxSeries": func() { reg.SetMaxSeries("nope", 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestExpBuckets pins the ladder construction.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestLabelEscaping pins exposition escaping of hostile label values.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounterVec("esc_total", "E.", "v").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping:\n%s", b.String())
	}
}
