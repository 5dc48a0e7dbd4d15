package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0.5, 5},
		// 0.91·10 = 9.1: the nearest rank is the 10th value. Rounding
		// p·n would return the 9th and under-report the tail.
		{0.91, 10},
		{1, 10},
		{-1, 1},   // clamped to the minimum
		{1.5, 10}, // clamped to the maximum
	} {
		if got := percentile(ten, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// writeBaseline stores body as a baseline file and returns its path.
func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "LOAD_base.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGate(t *testing.T) {
	raw, err := json.Marshal(loadReport{ClaimsPerS: 100})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{baseline: writeBaseline(t, string(raw)), maxRatio: 2}
	for _, tc := range []struct {
		claimsPerS float64
		pass       bool
	}{
		{40, false}, // 2.5x below the baseline: beyond -max-ratio
		{50, true},  // exactly at the bound
		{80, true},  // a regression inside the bound
		{300, true}, // an improvement
	} {
		err := gate(cfg, &loadReport{ClaimsPerS: tc.claimsPerS})
		if (err == nil) != tc.pass {
			t.Errorf("gate at %v claims/s against 100 with max-ratio 2: err = %v, want pass %v", tc.claimsPerS, err, tc.pass)
		}
	}

	for name, body := range map[string]string{
		"zero claims": `{"claims_per_s": 0}`,
		"malformed":   `{"claims_per_s": `,
	} {
		cfg := config{baseline: writeBaseline(t, body), maxRatio: 2}
		if err := gate(cfg, &loadReport{ClaimsPerS: 100}); err == nil {
			t.Errorf("%s baseline: gate returned no error", name)
		}
	}
	missing := config{baseline: filepath.Join(t.TempDir(), "absent.json"), maxRatio: 2}
	if err := gate(missing, &loadReport{ClaimsPerS: 100}); err == nil {
		t.Error("missing baseline: gate returned no error")
	}
}

func TestClassifyShed(t *testing.T) {
	for _, tc := range []struct {
		status                     int
		shed                       bool
		shed429, shed503, other5xx int
	}{
		{http.StatusTooManyRequests, true, 1, 0, 0},
		{http.StatusServiceUnavailable, true, 0, 1, 0},
		{http.StatusInternalServerError, false, 0, 0, 1},
		{http.StatusGatewayTimeout, false, 0, 0, 1},
		{http.StatusBadRequest, false, 0, 0, 0},
	} {
		var res opResult
		shed := classifyShed(&res, tc.status)
		if shed != tc.shed || res.shed429 != tc.shed429 || res.shed503 != tc.shed503 || res.other5xx != tc.other5xx {
			t.Errorf("status %d: shed %v, counts 429=%d 503=%d other5xx=%d; want %v, %d/%d/%d",
				tc.status, shed, res.shed429, res.shed503, res.other5xx, tc.shed, tc.shed429, tc.shed503, tc.other5xx)
		}
	}
}
