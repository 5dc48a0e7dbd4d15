package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/repro/scrutinizer"
)

func testServer(t *testing.T) (*server, *scrutinizer.World) {
	t.Helper()
	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = 30
	cfg.NumSections = 3
	w, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(w.Corpus, serverConfig{parallel: 4, sessionTTL: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

func TestHealthz(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var status string
	var service struct {
		PerCorpus map[string]struct {
			Relations int `json:"relations"`
		} `json:"per_corpus"`
	}
	if err := json.Unmarshal(body["status"], &status); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body["service"], &service); err != nil {
		t.Fatal(err)
	}
	// The startup corpus is reported like any other corpus.
	if status != "ok" || service.PerCorpus["default"].Relations != w.Corpus.Len() {
		t.Errorf("healthz status %q, per_corpus %+v; want ok with %d default relations",
			status, service.PerCorpus, w.Corpus.Len())
	}
	// The fields that described only the startup corpus are gone.
	for _, gone := range []string{"corpus", "query_cache", "interner"} {
		if _, ok := body[gone]; ok {
			t.Errorf("healthz still reports %q", gone)
		}
	}
}

// metricValue reads one sample from GET /metrics (0 when absent).
func metricValue(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	return 0
}

// TestHealthzQueryCacheWarmsAcrossVerifies: the daemon keeps one query
// cache per corpus, shared by every run over it, so repeated batch runs of
// one verifier surface as a growing per-corpus hit series on /metrics.
func TestHealthzQueryCacheWarmsAcrossVerifies(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 0)
	// A small batch forces mid-run retraining, so later batches carry
	// trained formula candidates into Algorithm 2.
	payload := map[string]any{"document": json.RawMessage(docJSON(t, w.Document)), "batch": 5}
	const series = `scrutinizer_querycache_hits_total{corpus="default"}`
	const missSeries = `scrutinizer_querycache_misses_total{corpus="default"}`
	var hits [2]float64
	for i := range hits {
		if resp, _ := postV1Run(t, ts, info.ID, payload); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
		hits[i] = metricValue(t, ts, series)
		// The first run over a cold cache must enumerate, whether or not
		// the formula prefetch did that enumeration.
		if i == 0 {
			if misses := metricValue(t, ts, missSeries); misses == 0 {
				t.Errorf("%s after run 1 = 0, want positive", missSeries)
			}
		}
	}
	if hits[0] == 0 || hits[1] <= hits[0] {
		t.Errorf("%s after runs 1 and 2 = %v, want positive and growing", series, hits)
	}
	if entries := metricValue(t, ts, `scrutinizer_querycache_entries{corpus="default"}`); entries == 0 {
		t.Error("default corpus query cache holds no entries after two runs")
	}
}

func TestVerifyEnvelope(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 11)
	resp, out := postV1Run(t, ts, info.ID, map[string]any{
		"document":    json.RawMessage(docJSON(t, w.Document)),
		"team":        3,
		"batch":       10,
		"parallelism": 4,
		"seed":        11,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Claims != len(w.Document.Claims) || len(out.Outcomes) != out.Claims {
		t.Fatalf("claims = %d, outcomes = %d, want %d", out.Claims, len(out.Outcomes), len(w.Document.Claims))
	}
	if out.Correct+out.Incorrect+out.Skipped != out.Claims {
		t.Errorf("verdict counts %d+%d+%d != %d", out.Correct, out.Incorrect, out.Skipped, out.Claims)
	}
	if out.Accuracy < 0.9 {
		t.Errorf("accuracy = %g", out.Accuracy)
	}
	if out.CrowdSecs <= 0 || out.Batches == 0 || out.Parallelism != 4 {
		t.Errorf("report fields: %+v", out)
	}
}

func TestVerifyBareDocumentAndDeterminism(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 11)
	post := func() batchRunResponse {
		resp := do(t, http.MethodPost, ts.URL+"/v1/verifiers/"+info.ID+"/runs", docJSON(t, w.Document))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bare document rejected: %d", resp.StatusCode)
		}
		var out batchRunResponse
		decodeJSON(t, resp, &out)
		return out
	}
	// Same request twice: identical crowd time and verdicts (the service
	// inherits the engine's determinism, whatever the fan-out).
	out1, out2 := post(), post()
	if out1.CrowdSecs != out2.CrowdSecs || out1.Correct != out2.Correct || out1.Incorrect != out2.Incorrect {
		t.Errorf("non-deterministic service: %+v vs %+v", out1, out2)
	}
}

func TestVerifyRejectsBadInput(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 3)
	runs := ts.URL + "/v1/verifiers/" + info.ID + "/runs"
	for _, tc := range []struct {
		name    string
		payload []byte
		want    int
	}{
		{"malformed", []byte("{not json"), http.StatusBadRequest},
		// {} parses as an empty document: no claims to verify.
		{"empty object", []byte("{}"), http.StatusUnprocessableEntity},
		{"bad ordering", mustJSON(t, map[string]any{
			"document": json.RawMessage(docJSON(t, w.Document)), "ordering": "alphabetical"}), http.StatusBadRequest},
		// Unannotated claims are a 422: the simulated crowd has nothing
		// to answer from.
		{"unannotated", docJSON(t, w.Document.Unannotated()), http.StatusUnprocessableEntity},
	} {
		resp := do(t, http.MethodPost, runs, tc.payload)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Wrong method.
	getResp, err := http.Get(runs)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET runs: status = %d", getResp.StatusCode)
	}
}

func TestLoadCorpusSynthetic(t *testing.T) {
	corpus, err := loadCorpus("", 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus.Names()) == 0 {
		t.Fatal("synthetic corpus is empty")
	}
	if _, err := loadCorpus(t.TempDir(), 0, 0); err == nil || !strings.Contains(err.Error(), "no *.csv") {
		t.Errorf("empty corpus dir: err = %v", err)
	}
}
