package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/planner"
)

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func do(t *testing.T, method, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sessionCrowd answers session questions exactly like the in-process
// simulated-crowd oracle: per-claim team views over the same seeds, truth
// labels from the document, truth SQL from the engine of a cold run over
// the same corpus.
type sessionCrowd struct {
	t       *testing.T
	engine  *core.Engine
	team    *crowd.Team
	doc     *scrutinizer.Document
	oracles map[int]core.Oracle
}

func newSessionCrowd(t *testing.T, corpus *scrutinizer.Corpus, doc *scrutinizer.Document, seed int64, teamSize int) *sessionCrowd {
	t.Helper()
	v, err := scrutinizer.NewVerifier(corpus, doc.Unannotated(), scrutinizer.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	run, err := v.StartRun(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	team, err := v.NewTeam(teamSize)
	if err != nil {
		t.Fatal(err)
	}
	return &sessionCrowd{t: t, engine: run.Engine(), team: team, doc: doc, oracles: map[int]core.Oracle{}}
}

func (sc *sessionCrowd) answer(q scrutinizer.SessionQuestion) scrutinizer.SessionAnswer {
	sc.t.Helper()
	a, err := sc.tryAnswer(q)
	if err != nil {
		sc.t.Fatal(err)
	}
	return a
}

// tryAnswer is answer for goroutines other than the test's own, which
// must not call t.Fatal.
func (sc *sessionCrowd) tryAnswer(q scrutinizer.SessionQuestion) (scrutinizer.SessionAnswer, error) {
	oracle := sc.oracles[q.ClaimID]
	if oracle == nil {
		var err error
		oracle, err = sc.engine.NewTeamOracle(sc.team.ForClaim(q.ClaimID))
		if err != nil {
			return scrutinizer.SessionAnswer{}, err
		}
		sc.oracles[q.ClaimID] = oracle
	}
	var claim *scrutinizer.Claim
	for _, c := range sc.doc.Claims {
		if c.ID == q.ClaimID {
			claim = c
			break
		}
	}
	if claim == nil {
		return scrutinizer.SessionAnswer{}, fmt.Errorf("question for unknown claim %d", q.ClaimID)
	}
	var value string
	var secs float64
	if q.Screen == "final" {
		value, secs = oracle.AnswerFinal(claim, q.Candidates)
	} else {
		var kind core.PropertyKind
		switch q.Screen {
		case "relation":
			kind = core.PropRelation
		case "key":
			kind = core.PropKey
		case "attribute":
			kind = core.PropAttr
		case "formula":
			kind = core.PropFormula
		default:
			return scrutinizer.SessionAnswer{}, fmt.Errorf("unknown screen %q", q.Screen)
		}
		opts := make([]planner.Option, len(q.Options))
		for i, o := range q.Options {
			opts[i] = planner.Option{Value: o.Value, Prob: o.Prob}
		}
		value, secs = oracle.AnswerProperty(claim, kind, opts)
	}
	return scrutinizer.SessionAnswer{QuestionID: q.ID, ClaimID: q.ClaimID, Value: value, Seconds: secs}, nil
}

// TestSessionLifecycleMatchesVerify is the acceptance pin at the HTTP
// layer: a simulated crowd driving a document through an interactive run
// (create → poll questions → post answers → report) produces verdicts,
// crowd seconds and accuracy bit-identical to a batch run with the same
// team. The verifier is cold — trained on the unannotated document — so
// the first batch's final screens come without candidates.
func TestSessionLifecycleMatchesVerify(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document.Unannotated(), 11)
	if info.TrainedOn != 0 {
		t.Fatalf("verifier trained on %d annotated claims, want a cold start", info.TrainedOn)
	}
	runs := ts.URL + "/v1/verifiers/" + info.ID + "/runs"
	envelope := func(extra map[string]any) map[string]any {
		m := map[string]any{"document": json.RawMessage(docJSON(t, w.Document)),
			"batch": 10, "section_read_cost": 15}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}

	// Reference: the synchronous simulated-crowd batch run.
	refResp, ref := postV1Run(t, ts, info.ID, envelope(map[string]any{"team": 3}))
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("batch run status = %d", refResp.StatusCode)
	}

	// Interactive: start a session run with three section-skimming
	// checkers (the team-size analog for the §5.1 cost accounting).
	resp := do(t, http.MethodPost, runs, mustJSON(t, envelope(map[string]any{"mode": "session", "checkers": 3})))
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create status = %d: %s", resp.StatusCode, b)
	}
	var created sessionRunResponse
	decodeJSON(t, resp, &created)
	if created.ID == "" || created.Claims != len(w.Document.Claims) || len(created.Questions) == 0 {
		t.Fatalf("create response = %+v", created)
	}
	base := ts.URL + "/v1/runs/" + created.ID

	sc := newSessionCrowd(t, w.Corpus, w.Document, 11, 3)
	questions := created.Questions
	for len(questions) > 0 {
		var answers []scrutinizer.SessionAnswer
		for _, q := range questions {
			answers = append(answers, sc.answer(q))
		}
		payload, err := json.Marshal(map[string]any{"answers": answers})
		if err != nil {
			t.Fatal(err)
		}
		aResp := do(t, http.MethodPost, base+"/answers", payload)
		if aResp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(aResp.Body)
			t.Fatalf("answers status = %d: %s", aResp.StatusCode, b)
		}
		var ar answersResponse
		decodeJSON(t, aResp, &ar)
		if ar.Accepted != len(answers) {
			t.Fatalf("accepted %d of %d answers", ar.Accepted, len(answers))
		}
		questions = ar.Questions
		if len(questions) == 0 && !ar.Progress.Done {
			// Batch boundary: the next batch's questions are fetched by
			// polling, as a real client would.
			var done bool
			questions, done = pendingQuestions(t, ts.URL, created.ID)
			if len(questions) == 0 && !done {
				t.Fatal("session not done but no questions queued")
			}
		}
	}

	// Progress reflects completion and the retrain generations.
	pResp := do(t, http.MethodGet, base, nil)
	var prog scrutinizer.SessionProgress
	decodeJSON(t, pResp, &prog)
	if !prog.Done || prog.Verified != len(w.Document.Claims) || prog.ModelGeneration == 0 {
		t.Fatalf("final progress = %+v", prog)
	}

	rResp := do(t, http.MethodGet, base+"/report", nil)
	var rep sessionReportResponse
	decodeJSON(t, rResp, &rep)
	if !rep.Done {
		t.Fatal("report not done")
	}
	if rep.CrowdSecs != ref.CrowdSecs {
		t.Errorf("crowd seconds = %v, want %v", rep.CrowdSecs, ref.CrowdSecs)
	}
	if rep.Correct != ref.Correct || rep.Incorrect != ref.Incorrect || rep.Skipped != ref.Skipped {
		t.Errorf("verdict counts %d/%d/%d, want %d/%d/%d",
			rep.Correct, rep.Incorrect, rep.Skipped, ref.Correct, ref.Incorrect, ref.Skipped)
	}
	if rep.Accuracy != ref.Accuracy {
		t.Errorf("accuracy = %v, want %v", rep.Accuracy, ref.Accuracy)
	}
	if rep.Batches != ref.Batches || len(rep.Outcomes) != len(ref.Outcomes) {
		t.Fatalf("batches/outcomes = %d/%d, want %d/%d", rep.Batches, len(rep.Outcomes), ref.Batches, len(ref.Outcomes))
	}
	for i := range rep.Outcomes {
		a, b := rep.Outcomes[i], ref.Outcomes[i]
		if a.ClaimID != b.ClaimID || a.Verdict != b.Verdict || a.Seconds != b.Seconds || a.SQL != b.SQL || a.Value != b.Value ||
			(a.Suggestion == nil) != (b.Suggestion == nil) || (a.Suggestion != nil && *a.Suggestion != *b.Suggestion) {
			t.Fatalf("outcome %d = %+v, want %+v", i, a, b)
		}
	}

	// Delete ends the run.
	dResp := do(t, http.MethodDelete, base, nil)
	if dResp.StatusCode != http.StatusOK {
		t.Errorf("delete status = %d", dResp.StatusCode)
	}
	dResp.Body.Close()
	if g := do(t, http.MethodGet, base, nil); g.StatusCode != http.StatusNotFound {
		t.Errorf("deleted run still reachable: %d", g.StatusCode)
	}
}

// TestSessionEndpointErrors covers the interactive-run error surface:
// malformed bodies, unknown IDs, stale question IDs, wrong methods.
func TestSessionEndpointErrors(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 11)
	runs := ts.URL + "/v1/verifiers/" + info.ID + "/runs"

	// Malformed create bodies.
	for _, payload := range [][]byte{[]byte("{not json"), mustJSON(t, map[string]any{
		"document": json.RawMessage(docJSON(t, w.Document)), "mode": "session", "ordering": "alphabetical"})} {
		resp := do(t, http.MethodPost, runs, payload)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create %.40q: status = %d, want 400", payload, resp.StatusCode)
		}
	}
	// An empty document has no claims to verify.
	resp := do(t, http.MethodPost, runs, []byte(`{"document": {"title": "t", "sections": 1, "claims": []}, "mode": "session"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("empty create: status = %d, want 422", resp.StatusCode)
	}

	// Unknown run IDs.
	for _, ep := range []string{"/v1/runs/nope", "/v1/runs/nope/questions", "/v1/runs/nope/report"} {
		resp := do(t, http.MethodGet, ts.URL+ep, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", ep, resp.StatusCode)
		}
	}
	resp = do(t, http.MethodPost, ts.URL+"/v1/runs/nope/answers", []byte(`{"claim_id":1,"value":"x"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("answers for unknown run: status = %d, want 404", resp.StatusCode)
	}

	// A live session rejects malformed and conflicting answers.
	resp = do(t, http.MethodPost, runs, mustJSON(t, map[string]any{
		"document": json.RawMessage(docJSON(t, w.Document)), "mode": "session"}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	var created sessionRunResponse
	decodeJSON(t, resp, &created)
	base := ts.URL + "/v1/runs/" + created.ID

	resp = do(t, http.MethodPost, base+"/answers", []byte("{not json"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed answers: status = %d, want 400", resp.StatusCode)
	}
	resp = do(t, http.MethodPost, base+"/answers", []byte(`{}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty answers: status = %d, want 400", resp.StatusCode)
	}
	q := created.Questions[0]
	stale, err := json.Marshal(scrutinizer.SessionAnswer{QuestionID: "c999999.7", ClaimID: q.ClaimID, Value: "x"})
	if err != nil {
		t.Fatal(err)
	}
	resp = do(t, http.MethodPost, base+"/answers", stale)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale question id: status = %d, want 409", resp.StatusCode)
	}

	// Wrong methods 405 via the method-pattern router.
	resp = do(t, http.MethodPut, base, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT run: status = %d, want 405", resp.StatusCode)
	}
	resp = do(t, http.MethodGet, ts.URL+"/v1/runs", nil)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("GET /v1/runs unexpectedly served: %d", resp.StatusCode)
	}
}

// TestBodyCap verifies the request-body cap returns 413 on every route
// that reads a document or a relation (the server's cap is lowered so the
// test does not allocate 64 MB).
func TestBodyCap(t *testing.T) {
	s, w := testServer(t)
	v, err := s.svc.CreateVerifier("default", w.Document, scrutinizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.maxBody = 1024
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	big := []byte(`{"document": {"title": "` + strings.Repeat("x", 4096) + `"}}`)
	for _, ep := range []string{
		"/v1/verifiers/" + v.ID() + "/runs",
		"/v1/corpora/default/verifiers",
		"/v1/corpora",
	} {
		resp := do(t, http.MethodPost, ts.URL+ep, big)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized: status = %d, want 413", ep, resp.StatusCode)
		}
	}
}

// TestHealthzReportsSessions extends the liveness probe: active session
// count, queued questions and the engine model generation must be
// reported alongside the registry statistics.
func TestHealthzReportsSessions(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 11)
	resp := do(t, http.MethodPost, ts.URL+"/v1/verifiers/"+info.ID+"/runs", mustJSON(t, map[string]any{
		"document": json.RawMessage(docJSON(t, w.Document)), "mode": "session"}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	var created sessionRunResponse
	decodeJSON(t, resp, &created)

	hResp := do(t, http.MethodGet, ts.URL+"/healthz", nil)
	var health struct {
		Status   string `json:"status"`
		Sessions struct {
			Active          int    `json:"active"`
			QueuedQuestions int    `json:"queued_questions"`
			ModelGeneration uint64 `json:"model_generation"`
		} `json:"sessions"`
	}
	decodeJSON(t, hResp, &health)
	if health.Status != "ok" || health.Sessions.Active != 1 {
		t.Errorf("healthz = %+v", health)
	}
	if health.Sessions.QueuedQuestions != len(created.Questions) {
		t.Errorf("queued = %d, want %d", health.Sessions.QueuedQuestions, len(created.Questions))
	}
	// The verifier arrived trained, so the session's engine starts at a
	// nonzero model generation.
	if health.Sessions.ModelGeneration == 0 {
		t.Errorf("model generation = 0, want the trained verifier's")
	}
}
