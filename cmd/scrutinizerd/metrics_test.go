package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/repro/scrutinizer"
)

// TestMetricsEndpoint is the subsystem-coverage integration test: after
// real traffic (a batch run, a session with answers, journal appends),
// GET /metrics must serve valid exposition text with series from every
// serving layer — HTTP, guard, sessions, core + caches, and the store.
func TestMetricsEndpoint(t *testing.T) {
	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = 30
	cfg.NumSections = 3
	w, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(w.Corpus, serverConfig{parallel: 4, sessionTTL: time.Hour},
		scrutinizer.NewMemoryStore())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// Traffic: a cold verifier (so the run's first barrier refits cold),
	// one batch run on it (runs, rounds, retrains, query cache, feature
	// memo) and one interactive session with a few answers.
	info := trainV1Verifier(t, ts, "default", w.Document.Unannotated(), 0)
	payload := map[string]any{"document": json.RawMessage(docJSON(t, w.Document)), "batch": 10}
	if resp, _ := postV1Run(t, ts, info.ID, payload); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch run: status %d", resp.StatusCode)
	}
	payload["mode"] = "session"
	resp := do(t, http.MethodPost, ts.URL+"/v1/verifiers/"+info.ID+"/runs", mustJSON(t, payload))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: status %d", resp.StatusCode)
	}
	var created sessionRunResponse
	decodeJSON(t, resp, &created)
	if len(created.Questions) > 0 {
		// Answer the first pending question; the best candidate option when
		// one is offered, a legitimate skip ("") otherwise.
		q := created.Questions[0]
		value := ""
		if len(q.Options) > 0 {
			value = q.Options[0].Value
		}
		ans, _ := json.Marshal(map[string]any{
			"claim_id": q.ClaimID, "value": value, "seconds": 1.0,
		})
		ar, err := http.Post(ts.URL+"/v1/runs/"+created.ID+"/answers", "application/json", bytes.NewReader(ans))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, ar.Body)
		ar.Body.Close()
		if ar.StatusCode != http.StatusOK {
			t.Fatalf("answer: status %d", ar.StatusCode)
		}
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", mr.StatusCode)
	}
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Exposition validity: typed families, unique series, no stray lines.
	types := map[string]string{}
	series := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			t.Fatal("blank line in exposition output")
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			types[parts[2]] = parts[3]
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line %q", line)
		default:
			sp := strings.LastIndex(line, " ")
			if sp < 0 {
				t.Fatalf("malformed sample line %q", line)
			}
			key := line[:sp]
			if series[key] {
				t.Fatalf("duplicate series %q", key)
			}
			series[key] = true
			name := key
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
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
		}
	}
	if len(series) < 20 {
		t.Errorf("only %d series exposed, want >= 20:\n%s", len(series), body)
	}

	// Subsystem coverage: at least one live sample from each layer.
	for _, want := range []string{
		`scrutinizer_http_requests_total{route="v1/verifiers",code="200"} 1`, // HTTP: the batch run
		"scrutinizer_http_inflight_requests 1",                               // this scrape itself
		"scrutinizer_admission_inflight",                                     // guard
		"scrutinizer_guard_rejected_total",                                   // guard (family)
		"scrutinizer_sessions_active 1",                                      // sessions
		"scrutinizer_session_answers_total",                                  // sessions
		"scrutinizer_runs_started_total",                                     // core lifecycle
		"scrutinizer_run_rounds_total",                                       // core lifecycle
		`scrutinizer_classifier_fits_total{fit="warm"}`,                      // core retrain
		`scrutinizer_querycache_hits_total{corpus="default"}`,                // core cache
		"scrutinizer_feature_memo_hits_total",                                // core cache
		"scrutinizer_store_appends_total",                                    // store
		"scrutinizer_store_journal_records",                                  // store
		"scrutinizer_go_goroutines",                                          // runtime
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}

	// Activity actually registered: the batch run above must have counted at
	// least one run, round and retrain on the event-driven counters, and
	// both a cold fit (the run's first barrier) and a warm one (later
	// barriers over a growing label pool).
	for _, name := range []string{
		"scrutinizer_runs_started_total 0",
		"scrutinizer_run_rounds_total 0",
		"scrutinizer_model_retrains_total 0",
		`scrutinizer_classifier_fits_total{fit="warm"} 0`,
		`scrutinizer_classifier_fits_total{fit="cold"} 0`,
		"scrutinizer_store_appends_total 0",
	} {
		if strings.Contains(body, name+"\n") {
			t.Errorf("%s still zero after traffic", strings.TrimSuffix(name, " 0"))
		}
	}
}

// TestHealthzMatchesMetrics pins the one-source-of-truth satellite: the
// numbers /healthz reports must equal what the obs gauges hold after the
// same refresh.
func TestHealthzMatchesMetrics(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 0)
	startSessionRun(t, ts.URL, info.ID, w.Document)

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var body struct {
		Sessions struct {
			Active       int    `json:"active"`
			CreatedTotal uint64 `json:"created_total"`
		} `json:"sessions"`
		Service struct {
			Corpora int `json:"corpora"`
		} `json:"service"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Sessions.Active != 1 || body.Sessions.CreatedTotal != 1 {
		t.Fatalf("healthz sessions = %+v", body.Sessions)
	}
	if got := s.metrics.sessionsActive.Value(); got != 1 {
		t.Errorf("sessions_active gauge = %v after healthz refresh, want 1", got)
	}
	if got := s.metrics.sessionsCreated.Value(); got != 1 {
		t.Errorf("sessions_created counter = %v, want 1", got)
	}
	if got := s.metrics.corpora.Value(); got != float64(body.Service.Corpora) {
		t.Errorf("corpora gauge = %v, healthz says %d", got, body.Service.Corpora)
	}
}

// TestMetricsDuringBoot: /metrics stays reachable (and the not_ready
// rejection counter counts walled API calls) before boot finishes.
func TestMetricsDuringBoot(t *testing.T) {
	s := newServerShell(serverConfig{parallel: 2, sessionTTL: time.Hour}, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	vr, err := http.Post(ts.URL+"/v1/corpora", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, vr.Body)
	vr.Body.Close()
	if vr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-boot API status = %d, want 503", vr.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("pre-boot /metrics status = %d, want 200", mr.StatusCode)
	}
	raw, _ := io.ReadAll(mr.Body)
	if !strings.Contains(string(raw), `scrutinizer_guard_rejected_total{reason="not_ready"} 1`) {
		t.Errorf("not_ready rejection not counted:\n%s", raw)
	}
}
