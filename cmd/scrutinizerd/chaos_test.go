package main

// The chaos harness: tenant-protection behavior under hostile or degraded
// conditions, driven through the real route tree. Everything here is named
// to match the CI chaos job's -run 'Chaos|Cancel|Quota' filter and must
// stay green under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/scrutinizer"
)

// guardedServer is testServer with tenant-protection knobs.
func guardedServer(t *testing.T, cfg serverConfig, st scrutinizer.Store) (*server, *scrutinizer.World, *httptest.Server) {
	t.Helper()
	wcfg := scrutinizer.SmallWorld()
	wcfg.NumClaims = 30
	wcfg.NumSections = 3
	w, err := scrutinizer.GenerateWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.parallel == 0 {
		cfg.parallel = 4
	}
	if cfg.sessionTTL == 0 {
		cfg.sessionTTL = time.Hour
	}
	s, err := newServer(w.Corpus, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, w, ts
}

// smallDoc trims the world document so guarded runs stay cheap.
func smallDoc(w *scrutinizer.World, n int) *scrutinizer.Document {
	return &scrutinizer.Document{Title: "chaos", Sections: w.Document.Sections,
		Claims: w.Document.Claims[:n]}
}

// TestChaosRateLimit429: a tenant over its token bucket gets 429 with a
// Retry-After, before the request body is even read.
func TestChaosRateLimit429(t *testing.T) {
	_, w, ts := guardedServer(t, serverConfig{rateLimit: 1, rateBurst: 1}, nil)
	// Training is charged to the corpus, runs to the verifier: the run
	// bucket below starts full.
	runs := ts.URL + "/v1/verifiers/" + trainV1Verifier(t, ts, "default", w.Document, 11).ID + "/runs"

	// The burst admits one request (garbage body: admission happens before
	// parsing, so a 400 proves the token was spent).
	resp := do(t, http.MethodPost, runs, []byte("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("first request status = %d, want 400", resp.StatusCode)
	}
	// The bucket is empty: the second request is rejected without parsing.
	resp = do(t, http.MethodPost, runs, []byte("{"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "rate limit") {
		t.Errorf("429 body does not name the rate limit: %s", body)
	}
}

// TestChaosGateSheds503: at -max-inflight the gate rejects with 503 +
// Retry-After and /readyz reports degraded; freeing a slot restores
// admission. The slots are occupied directly through the gate so the test
// is deterministic — no goroutine timing.
func TestChaosGateSheds503(t *testing.T) {
	s, _, ts := guardedServer(t, serverConfig{maxInflight: 2}, nil)

	leave1, ok1 := s.gate.Enter()
	leave2, ok2 := s.gate.Enter()
	if !ok1 || !ok2 {
		t.Fatal("could not occupy the gate")
	}
	// Training a verifier is an expensive route: the gate comes first.
	train := ts.URL + "/v1/corpora/default/verifiers"
	resp := do(t, http.MethodPost, train, []byte("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status at capacity = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 503 carries no Retry-After header")
	}

	// Readiness stays 200 — the daemon is serving — but reports degraded.
	resp = do(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz at capacity = %d, want 200", resp.StatusCode)
	}
	var rz struct {
		Status    string `json:"status"`
		Admission struct {
			InFlight int `json:"in_flight"`
			Shed     int `json:"shed_total"`
		} `json:"admission"`
	}
	decodeJSON(t, resp, &rz)
	if rz.Status != "degraded" || rz.Admission.Shed == 0 {
		t.Errorf("/readyz at capacity = %+v, want degraded with shed > 0", rz)
	}

	leave1()
	leave2()
	resp = do(t, http.MethodPost, train, []byte("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status after slots freed = %d, want 400 (admitted, bad body)", resp.StatusCode)
	}
}

// TestChaosQuotaPerTenantRuns: with -max-runs-per-tenant=1 a parked
// interactive run blocks the tenant's next run with 429 — but only that
// tenant's; deleting the run frees the slot.
func TestChaosQuotaPerTenantRuns(t *testing.T) {
	_, w, ts := guardedServer(t, serverConfig{maxRunsPerTenant: 1}, nil)
	doc := smallDoc(w, 6)

	hostile := trainV1Verifier(t, ts, "default", w.Document, 11)
	polite := trainV1Verifier(t, ts, "default", w.Document, 12)

	// Park an interactive run on the hostile verifier: it holds the
	// tenant's only slot until finished or deleted.
	runID := startSessionRun(t, ts.URL, hostile.ID, doc)

	batch := func(verifierID string) *http.Response {
		body, _ := json.Marshal(map[string]any{
			"document": json.RawMessage(docJSON(t, doc)),
			"mode":     "batch",
			"batch":    5,
			"seed":     int64(11),
		})
		return do(t, http.MethodPost, ts.URL+"/v1/verifiers/"+verifierID+"/runs", body)
	}

	resp := batch(hostile.ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second run at quota: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota 429 carries no Retry-After header")
	}
	// A second session run is equally rejected.
	body, _ := json.Marshal(map[string]any{
		"document": json.RawMessage(docJSON(t, doc)),
		"mode":     "session",
		"batch":    5,
	})
	resp = do(t, http.MethodPost, ts.URL+"/v1/verifiers/"+hostile.ID+"/runs", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second session at quota: status = %d, want 429", resp.StatusCode)
	}

	// The other tenant is untouched by the hostile tenant's quota.
	resp = batch(polite.ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant's run: status = %d, want 200", resp.StatusCode)
	}

	// Deleting the parked run frees the slot.
	resp = do(t, http.MethodDelete, ts.URL+"/v1/runs/"+runID, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete parked run: status = %d", resp.StatusCode)
	}
	resp = batch(hostile.ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after freeing quota: status = %d, want 200", resp.StatusCode)
	}
}

// TestChaosPanicTearsDownSessionOnly: a panic inside the answers handler
// costs that request (500) and that session (torn down), never the daemon
// — other sessions keep serving.
func TestChaosPanicTearsDownSessionOnly(t *testing.T) {
	s, w, ts := guardedServer(t, serverConfig{}, scrutinizer.NewMemoryStore())
	doc := smallDoc(w, 6)
	vid := trainV1Verifier(t, ts, "default", w.Document.Unannotated(), 11).ID

	createSession := func() string { return startSessionRun(t, ts.URL, vid, doc) }
	victim := createSession()
	bystander := createSession()

	var fired atomic.Bool
	s.panicHook = func(*http.Request) {
		if fired.CompareAndSwap(false, true) {
			panic("chaos: injected handler panic")
		}
	}
	answer := []byte(`{"claim_id": 0, "value": "x", "seconds": 1}`)
	resp := do(t, http.MethodPost, ts.URL+"/v1/runs/"+victim+"/answers", answer)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking answer: status = %d, want 500", resp.StatusCode)
	}

	// The poisoned session was torn down...
	resp = do(t, http.MethodGet, ts.URL+"/v1/runs/"+victim, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("victim session after panic: status = %d, want 404", resp.StatusCode)
	}
	// ...and the bystander — and the daemon — kept serving.
	resp = do(t, http.MethodGet, ts.URL+"/v1/runs/"+bystander+"/questions", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bystander session after panic: status = %d, want 200", resp.StatusCode)
	}
	if next := createSession(); next == "" {
		t.Fatal("daemon stopped creating sessions after a handler panic")
	}
}

// TestChaosReadyzDuringReplay: while boot replays the journal the daemon
// is live (/healthz 200) but not ready (/readyz 503, API 503); readiness
// flips only after replay finishes. A store latency fault holds the boot
// in the replay window long enough to probe it.
func TestChaosReadyzDuringReplay(t *testing.T) {
	wcfg := scrutinizer.SmallWorld()
	wcfg.NumClaims = 16
	wcfg.NumSections = 3
	w, err := scrutinizer.GenerateWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig{parallel: 4, sessionTTL: time.Hour}

	// Phase 1: write journaled state worth replaying — a verifier and a
	// parked session over a durable store.
	st := scrutinizer.NewMemoryStore()
	s1, err := newServer(w.Corpus, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.routes())
	vinfo := trainV1Verifier(t, ts1, "default", w.Document, 11)
	startSessionRun(t, ts1.URL, vinfo.ID, smallDoc(w, 6))
	ts1.Close()

	// Phase 2: reboot over the same journal behind a slow-disk fault.
	// Replay pays the latency per record, which holds the daemon in the
	// not-ready window while we probe it.
	slow := scrutinizer.NewFaultyStorePlan(st, scrutinizer.StoreFaultPlan{
		FailAppendsAfter: 1 << 30,
		Latency:          10 * time.Millisecond,
	})
	s2 := newServerShell(cfg, slow)
	ts2 := httptest.NewServer(s2.routes())
	defer ts2.Close()

	bootDone := make(chan error, 1)
	go func() { bootDone <- s2.boot(w.Corpus) }()

	// Probe during replay. The journal holds dozens of records at 10ms
	// each, so the first probes land well inside the window.
	resp := do(t, http.MethodGet, ts2.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during replay: status = %d, want 503", resp.StatusCode)
	}
	var rz struct {
		Status string `json:"status"`
		Ready  bool   `json:"ready"`
	}
	decodeJSON(t, resp, &rz)
	if rz.Status != "starting" || rz.Ready {
		t.Errorf("/readyz during replay = %+v", rz)
	}
	resp = do(t, http.MethodGet, ts2.URL+"/healthz", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during replay: status = %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
	resp = do(t, http.MethodPost, ts2.URL+"/v1/verifiers/"+vinfo.ID+"/runs", []byte("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("API during replay: status = %d, want 503", resp.StatusCode)
	}

	if err := <-bootDone; err != nil {
		t.Fatalf("boot: %v", err)
	}
	resp = do(t, http.MethodGet, ts2.URL+"/readyz", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after replay: status = %d, want 200", resp.StatusCode)
	}
}

// TestChaosHostileTenantFairness: a hostile tenant hammering its verifier
// collects 429s while a polite tenant's paced runs all succeed. Here the
// invariant is isolation — zero rejections for the tenant inside its
// budget; TestChaosOverloadHostileSessions checks that the daemon as a
// whole survives hostile clients.
func TestChaosHostileTenantFairness(t *testing.T) {
	_, w, ts := guardedServer(t, serverConfig{rateLimit: 20, rateBurst: 3}, nil)
	doc := smallDoc(w, 4)

	hostile := trainV1Verifier(t, ts, "default", w.Document, 11)
	polite := trainV1Verifier(t, ts, "default", w.Document, 12)

	runBody, _ := json.Marshal(map[string]any{
		"document": json.RawMessage(docJSON(t, doc)),
		"mode":     "batch",
		"batch":    5,
		"seed":     int64(11),
	})

	// Hostile: four workers posting as fast as the daemon answers, no
	// backoff, for the whole polite phase.
	stop := make(chan struct{})
	var shed, hostile5xx atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/verifiers/"+hostile.ID+"/runs", "application/json",
					strings.NewReader(string(runBody)))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					shed.Add(1)
				case resp.StatusCode >= 500:
					hostile5xx.Add(1)
				}
			}
		}()
	}

	// Polite: five runs, paced under the 20/s budget.
	for i := 0; i < 5; i++ {
		resp := do(t, http.MethodPost, ts.URL+"/v1/verifiers/"+polite.ID+"/runs", runBody)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("polite run %d under hostile load: status = %d (%s)", i, resp.StatusCode, body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if shed.Load() == 0 {
		t.Error("hostile tenant was never rate-limited — the limiter did not engage")
	}
	if hostile5xx.Load() != 0 {
		t.Errorf("hostile load produced %d non-shed 5xx responses", hostile5xx.Load())
	}
}

// TestChaosOverloadHostileSessions is the overload gate: hostile clients
// against a guarded, durable daemon. Eight clients open interactive runs
// and answer them one question per request, never backing off on a 429 or
// a 503; every second session is abandoned halfway without a DELETE, so
// it keeps holding its tenant's run slot. The daemon passes when it shed
// load (429s or 503s), failed nothing with any other 5xx, and still
// answers its probes afterwards.
func TestChaosOverloadHostileSessions(t *testing.T) {
	st, err := scrutinizer.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) // after the server's own cleanup
	_, w, ts := guardedServer(t, serverConfig{rateLimit: 50, rateBurst: 25, maxRunsPerTenant: 4,
		maxInflight: 32, requestTimeout: 30 * time.Second}, st)
	verifiers := []string{
		trainV1Verifier(t, ts, "default", w.Document, 11).ID,
		trainV1Verifier(t, ts, "default", w.Document, 12).ID,
	}
	runBody, _ := json.Marshal(map[string]any{
		"document": json.RawMessage(docJSON(t, w.Document)),
		"mode":     "session",
		"batch":    10,
	})

	const workers = 8
	// Each client keeps its own crowd: teams carry mutable RNG state.
	crowds := make([]*sessionCrowd, workers)
	for i := range crowds {
		crowds[i] = newSessionCrowd(t, w.Corpus, w.Document, int64(11+i%2), 3)
	}

	// The clients report through counters; only the test goroutine fails.
	var shed429, shed503, other5xx, answered, abandoned, errs atomic.Int64
	var abandons atomic.Int64
	client := &http.Client{Timeout: time.Minute}
	// send posts (body non-nil) or gets path, decoding a 2xx reply into
	// out; it returns the status, 0 when no response came back.
	send := func(method, path string, body []byte, out any) int {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			errs.Add(1)
			return 0
		}
		resp, err := client.Do(req)
		if err != nil {
			errs.Add(1)
			return 0
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			shed429.Add(1)
		case resp.StatusCode == http.StatusServiceUnavailable:
			shed503.Add(1)
		case resp.StatusCode >= 500:
			other5xx.Add(1)
		case resp.StatusCode < 300 && out != nil:
			if json.NewDecoder(resp.Body).Decode(out) != nil {
				errs.Add(1)
			}
		}
		io.Copy(io.Discard, resp.Body) // lets the connection be reused
		return resp.StatusCode
	}
	// session opens one interactive run and pumps it until it is done,
	// shed, abandoned or stalled.
	session := func(sc *sessionCrowd, verifierID string) {
		var run sessionRunResponse
		if send(http.MethodPost, "/v1/verifiers/"+verifierID+"/runs", runBody, &run) != http.StatusCreated {
			return
		}
		abandon := abandons.Add(1)%2 == 0
		abandonAfter := len(run.Questions)/2 + 1
		if !abandon {
			defer send(http.MethodDelete, "/v1/runs/"+run.ID, nil, nil)
		}
		queue, done := run.Questions, run.Progress.Done
		for answers, emptyPolls := 0, 0; !done; {
			if abandon && answers >= abandonAfter {
				abandoned.Add(1)
				return
			}
			if len(queue) == 0 {
				var qs struct {
					Questions []scrutinizer.SessionQuestion `json:"questions"`
					Done      bool                          `json:"done"`
				}
				if send(http.MethodGet, "/v1/runs/"+run.ID+"/questions", nil, &qs) != http.StatusOK {
					return
				}
				queue, done = qs.Questions, qs.Done
				if len(queue) == 0 && !done {
					if emptyPolls++; emptyPolls > 3 {
						errs.Add(1) // not done, nothing to answer
						return
					}
				}
				continue
			}
			a, err := sc.tryAnswer(queue[0])
			queue = queue[1:]
			if err != nil {
				errs.Add(1)
				return
			}
			body, _ := json.Marshal(a)
			var ar answersResponse
			switch send(http.MethodPost, "/v1/runs/"+run.ID+"/answers", body, &ar) {
			case http.StatusOK:
				answers++
				answered.Add(int64(ar.Accepted))
				queue = append(queue, ar.Questions...)
				done = ar.Progress.Done
			case http.StatusConflict:
				// The question went stale; keep pumping.
			default:
				// Shed or refused: a hostile client moves straight on.
				return
			}
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				session(crowds[i], verifiers[i%len(verifiers)])
			}
		}(i)
	}
	wg.Wait()
	t.Logf("overload: %d answers, %d sessions abandoned, shed %d as 429 and %d as 503, %d other 5xx, %d client errors",
		answered.Load(), abandoned.Load(), shed429.Load(), shed503.Load(), other5xx.Load(), errs.Load())

	if n := other5xx.Load(); n > 0 {
		t.Errorf("%d non-shed 5xx responses under overload", n)
	}
	if shed429.Load()+shed503.Load() == 0 {
		t.Error("overload shed nothing: the limits never engaged")
	}
	if answered.Load() == 0 {
		t.Error("no answer was accepted: the load never reached a session")
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp := do(t, http.MethodGet, ts.URL+probe, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s after overload: status = %d, want 200", probe, resp.StatusCode)
		}
	}
}

// TestCancelRequestTimeout504: -request-timeout bounds a verification and
// maps the expiry to 504, not 500.
func TestCancelRequestTimeout504(t *testing.T) {
	_, w, ts := guardedServer(t, serverConfig{requestTimeout: time.Microsecond}, nil)
	// Training takes no request deadline; the run does.
	vid := trainV1Verifier(t, ts, "default", w.Document, 11).ID
	var payload strings.Builder
	payload.WriteString(`{"batch": 10, "seed": 11, "document": `)
	bodyDoc := docJSON(t, w.Document)
	payload.Write(bodyDoc)
	payload.WriteString(`}`)
	resp := do(t, http.MethodPost, ts.URL+"/v1/verifiers/"+vid+"/runs", []byte(payload.String()))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, body)
	}
}

// TestCancelClientDisconnectStopsRun: a client abandoning its request
// cancels the verification mid-run, and the daemon's worker goroutines
// wind down to the pre-request baseline — no abandoned run keeps burning
// CPU for a caller that left.
func TestCancelClientDisconnectStopsRun(t *testing.T) {
	_, w, ts := guardedServer(t, serverConfig{}, nil)
	runs := ts.URL + "/v1/verifiers/" + trainV1Verifier(t, ts, "default", w.Document.Unannotated(), 11).ID + "/runs"
	payload := fmt.Sprintf(`{"batch": 5, "seed": 11, "team": 3, "document": %s}`, docJSON(t, w.Document))

	// Let the HTTP server finish its keep-alive bookkeeping from setup.
	time.Sleep(20 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, runs, strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		errc := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		// Give the verification time to start, then walk away.
		time.Sleep(15 * time.Millisecond)
		cancel()
		if err := <-errc; err == nil {
			t.Log("request finished before the disconnect; cancellation path not exercised this iteration")
		}
	}

	// All verification workers must wind down once their context dies.
	settled := baseline
	for i := 0; i < 100; i++ {
		settled = runtime.NumGoroutine()
		if settled <= baseline {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Allow a little slack for the httptest server's own connection
	// goroutines (keep-alives park briefly after a dropped connection).
	if settled > baseline+2 {
		t.Errorf("goroutines after disconnected runs: %d, baseline %d", settled, baseline)
	}
}
