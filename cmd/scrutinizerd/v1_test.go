package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/scrutinizer"
)

// docJSON marshals a document for request bodies.
func docJSON(t *testing.T, doc *scrutinizer.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// relationCSV renders one of the world corpus's relations as CSV.
func relationCSV(t *testing.T, corpus *scrutinizer.Corpus, name string) []byte {
	t.Helper()
	rel, err := corpus.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestV1CorpusLifecycle(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	relName := w.Corpus.Names()[0]
	csv := relationCSV(t, w.Corpus, relName)

	// Create a corpus seeded with one inline relation.
	body, _ := json.Marshal(map[string]any{
		"id": "iea",
		"relations": []map[string]string{
			{"name": relName, "csv": string(csv)},
		},
	})
	resp := do(t, "POST", ts.URL+"/v1/corpora", body)
	var created scrutinizer.CorpusInfo
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create corpus: status %d", resp.StatusCode)
	}
	decodeJSON(t, resp, &created)
	if created.ID != "iea" || created.Relations != 1 {
		t.Fatalf("created corpus = %+v", created)
	}

	// Duplicate id conflicts.
	if resp := do(t, "POST", ts.URL+"/v1/corpora", body); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate corpus: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Upload a second relation as a raw CSV body; re-upload replaces it.
	rel2 := w.Corpus.Names()[1]
	csv2 := relationCSV(t, w.Corpus, rel2)
	if resp := do(t, "PUT", ts.URL+"/v1/corpora/iea/relations/"+rel2, csv2); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload relation: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp = do(t, "PUT", ts.URL+"/v1/corpora/iea/relations/"+rel2, csv2)
	var put struct {
		Replaced bool `json:"replaced"`
		Rows     int  `json:"rows"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace relation: status %d", resp.StatusCode)
	}
	decodeJSON(t, resp, &put)
	if !put.Replaced || put.Rows == 0 {
		t.Fatalf("replace relation = %+v", put)
	}

	// Listing and GET see both relations.
	resp = do(t, "GET", ts.URL+"/v1/corpora/iea", nil)
	var got scrutinizer.CorpusInfo
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get corpus: status %d", resp.StatusCode)
	}
	decodeJSON(t, resp, &got)
	if got.Relations != 2 {
		t.Fatalf("corpus after uploads = %+v", got)
	}
	resp = do(t, "GET", ts.URL+"/v1/corpora", nil)
	var list struct {
		Corpora []scrutinizer.CorpusInfo `json:"corpora"`
	}
	decodeJSON(t, resp, &list)
	if len(list.Corpora) != 2 { // default + iea
		t.Fatalf("corpora list = %+v", list.Corpora)
	}

	// Deleting a relation works while the corpus has no verifiers.
	if resp := do(t, "DELETE", ts.URL+"/v1/corpora/iea/relations/"+rel2, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete relation: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Training a verifier freezes the corpus.
	resp = do(t, "POST", ts.URL+"/v1/corpora/iea/verifiers", docJSON(t, w.Document))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create verifier: status %d", resp.StatusCode)
	}
	var vinfo scrutinizer.VerifierInfo
	decodeJSON(t, resp, &vinfo)
	if resp := do(t, "PUT", ts.URL+"/v1/corpora/iea/relations/extra", csv); resp.StatusCode != http.StatusConflict {
		t.Fatalf("upload to frozen corpus: status %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Deleting the corpus cascades to its verifiers.
	if resp := do(t, "DELETE", ts.URL+"/v1/corpora/iea", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete corpus: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := do(t, "GET", ts.URL+"/v1/verifiers/"+vinfo.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("verifier survived corpus deletion: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// trainV1Verifier posts the document as training data for a verifier over
// the given corpus and returns its registry info.
func trainV1Verifier(t *testing.T, ts *httptest.Server, corpusID string, doc *scrutinizer.Document, seed int64) scrutinizer.VerifierInfo {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"training": json.RawMessage(docJSON(t, doc)),
		"seed":     seed,
	})
	resp := do(t, "POST", ts.URL+"/v1/corpora/"+corpusID+"/verifiers", body)
	if resp.StatusCode != http.StatusCreated {
		var e map[string]string
		decodeJSON(t, resp, &e)
		t.Fatalf("create verifier: status %d (%v)", resp.StatusCode, e)
	}
	var info scrutinizer.VerifierInfo
	decodeJSON(t, resp, &info)
	return info
}

func TestV1VerifierLifecycle(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 11)
	if info.ID == "" || info.CorpusID != "default" || info.TrainedOn == 0 || info.Generation == 0 {
		t.Fatalf("verifier info = %+v", info)
	}

	resp := do(t, "GET", ts.URL+"/v1/verifiers/"+info.ID, nil)
	var got scrutinizer.VerifierInfo
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get verifier: status %d", resp.StatusCode)
	}
	decodeJSON(t, resp, &got)
	if got.ID != info.ID || got.FeatureDim == 0 {
		t.Fatalf("get verifier = %+v", got)
	}

	resp = do(t, "GET", ts.URL+"/v1/verifiers", nil)
	var list struct {
		Verifiers []scrutinizer.VerifierInfo `json:"verifiers"`
	}
	decodeJSON(t, resp, &list)
	if len(list.Verifiers) != 1 || list.Verifiers[0].ID != info.ID {
		t.Fatalf("verifier list = %+v", list.Verifiers)
	}

	if resp := do(t, "DELETE", ts.URL+"/v1/verifiers/"+info.ID, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete verifier: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := do(t, "DELETE", ts.URL+"/v1/verifiers/"+info.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// postV1Run posts a run and decodes the batch response.
func postV1Run(t *testing.T, ts *httptest.Server, verifierID string, payload map[string]any) (*http.Response, batchRunResponse) {
	t.Helper()
	body, _ := json.Marshal(payload)
	resp := do(t, "POST", ts.URL+"/v1/verifiers/"+verifierID+"/runs", body)
	var out batchRunResponse
	if resp.StatusCode == http.StatusOK {
		decodeJSON(t, resp, &out)
	}
	return resp, out
}

// inProcessRun verifies doc in process on a fresh verifier trained on
// training: the library path a /v1 batch run must reproduce.
func inProcessRun(t *testing.T, corpus *scrutinizer.Corpus, training, doc *scrutinizer.Document, seed int64, batch int) *scrutinizer.Result {
	t.Helper()
	v, err := scrutinizer.NewVerifier(corpus, training, scrutinizer.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	run, err := v.StartRun(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	team, err := v.NewTeam(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Verify(context.Background(), team, scrutinizer.VerifyOptions{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestV1BatchRunMatchesInProcess is the acceptance pin for the /v1 surface:
// a trained verifier serving a document over HTTP produces verdicts
// bit-identical to an in-process verifier trained on the same data — and a
// second document served by the same warm verifier matches its own
// in-process reference too.
func TestV1BatchRunMatchesInProcess(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	const seed, batch = 11, 10
	info := trainV1Verifier(t, ts, "default", w.Document, seed)
	want := inProcessRun(t, w.Corpus, w.Document, w.Document, seed, batch)

	resp, got := postV1Run(t, ts, info.ID, map[string]any{
		"document": json.RawMessage(docJSON(t, w.Document)),
		"batch":    batch,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", resp.StatusCode)
	}
	if got.Verifier != info.ID || got.Mode != "batch" || got.ModelGeneration == 0 {
		t.Fatalf("run provenance = %+v", got)
	}
	// TF-IDF coverage of the training document is full (MinDF 1); embed
	// coverage is near-full — words under the embedding's MinCount never
	// enter its vocabulary, by design.
	if got.Coverage.TFIDFRatio != 1 || got.Coverage.EmbedRatio < 0.8 {
		t.Fatalf("training-document coverage = %+v, want full tfidf + near-full embed", got.Coverage)
	}
	if got.CrowdSecs != want.Seconds || got.Batches != want.Batches || got.Accuracy != want.Accuracy() {
		t.Fatalf("run vs in-process: secs %v/%v batches %d/%d acc %v/%v",
			got.CrowdSecs, want.Seconds, got.Batches, want.Batches, got.Accuracy, want.Accuracy())
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("outcome counts %d vs %d", len(got.Outcomes), len(want.Outcomes))
	}
	for i, o := range want.Outcomes {
		gotO := got.Outcomes[i]
		if gotO.ClaimID != o.ClaimID || gotO.Verdict != o.Verdict.String() || gotO.Seconds != o.Seconds {
			t.Fatalf("outcome %d: %+v vs %+v", i, gotO, o)
		}
	}

	// Second document on the same warm verifier: bit-identical to a
	// dedicated verifier trained on the full document (the verifier's
	// training set) and run over the half.
	half := &scrutinizer.Document{Title: "half", Sections: w.Document.Sections,
		Claims: w.Document.Claims[:len(w.Document.Claims)/2]}
	resp2, got2 := postV1Run(t, ts, info.ID, map[string]any{
		"document": json.RawMessage(docJSON(t, half)),
		"batch":    batch,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("half run: status %d", resp2.StatusCode)
	}
	want2 := inProcessRun(t, w.Corpus, w.Document, half, seed, batch)
	if got2.CrowdSecs != want2.Seconds || len(got2.Outcomes) != len(want2.Outcomes) {
		t.Fatalf("half run: secs %v/%v outcomes %d/%d",
			got2.CrowdSecs, want2.Seconds, len(got2.Outcomes), len(want2.Outcomes))
	}
	for i, o := range want2.Outcomes {
		if got2.Outcomes[i].Verdict != o.Verdict.String() {
			t.Fatalf("half outcome %d verdict %q vs %q", i, got2.Outcomes[i].Verdict, o.Verdict)
		}
	}

	// The verifier recorded both runs.
	resp = do(t, "GET", ts.URL+"/v1/verifiers/"+info.ID, nil)
	var after scrutinizer.VerifierInfo
	decodeJSON(t, resp, &after)
	if after.Runs != 2 {
		t.Fatalf("runs recorded = %d, want 2", after.Runs)
	}
}

// TestV1SessionRunMatchesBatch drives an interactive /v1 run with the
// simulated crowd and pins its report to the batch run of the same
// verifier: same verdicts, same crowd seconds.
func TestV1SessionRunMatchesBatch(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	const seed, batch = 11, 10
	info := trainV1Verifier(t, ts, "default", w.Document, seed)

	respBatch, batchOut := postV1Run(t, ts, info.ID, map[string]any{
		"document": json.RawMessage(docJSON(t, w.Document)),
		"batch":    batch,
	})
	if respBatch.StatusCode != http.StatusOK {
		t.Fatalf("batch run: status %d", respBatch.StatusCode)
	}

	body, _ := json.Marshal(map[string]any{
		"document": json.RawMessage(docJSON(t, w.Document)),
		"mode":     "session",
		"batch":    batch,
		"checkers": 3,
	})
	resp := do(t, "POST", ts.URL+"/v1/verifiers/"+info.ID+"/runs", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session run: status %d", resp.StatusCode)
	}
	var sessOut sessionRunResponse
	decodeJSON(t, resp, &sessOut)
	if sessOut.Mode != "session" || sessOut.Verifier != info.ID || sessOut.Links["report"] == "" {
		t.Fatalf("session run = %+v", sessOut)
	}

	// Answer everything through the /v1/runs links with the simulated
	// crowd (cost model and truth resolution identical to the batch path).
	sc := newSessionCrowd(t, w.Corpus, w.Document, seed, 3)
	questions := sessOut.Questions
	for rounds := 0; len(questions) > 0; rounds++ {
		if rounds > 10000 {
			t.Fatal("session did not converge")
		}
		answers := make([]scrutinizer.SessionAnswer, 0, len(questions))
		for _, q := range questions {
			answers = append(answers, sc.answer(q))
		}
		body, _ := json.Marshal(map[string]any{"answers": answers})
		resp := do(t, "POST", ts.URL+sessOut.Links["answers"], body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("answers: status %d", resp.StatusCode)
		}
		var ar answersResponse
		decodeJSON(t, resp, &ar)
		if len(ar.Questions) > 0 {
			questions = ar.Questions
			continue
		}
		resp = do(t, "GET", ts.URL+sessOut.Links["questions"], nil)
		var qs struct {
			Questions []scrutinizer.SessionQuestion `json:"questions"`
			Done      bool                          `json:"done"`
		}
		decodeJSON(t, resp, &qs)
		if qs.Done {
			break
		}
		questions = qs.Questions
	}

	resp = do(t, "GET", ts.URL+sessOut.Links["report"], nil)
	var rep sessionReportResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", resp.StatusCode)
	}
	decodeJSON(t, resp, &rep)
	if !rep.Done {
		t.Fatal("session not done")
	}
	if rep.Correct != batchOut.Correct || rep.Incorrect != batchOut.Incorrect || rep.Skipped != batchOut.Skipped {
		t.Fatalf("session verdicts %d/%d/%d vs batch %d/%d/%d",
			rep.Correct, rep.Incorrect, rep.Skipped, batchOut.Correct, batchOut.Incorrect, batchOut.Skipped)
	}
	if rep.CrowdSecs != batchOut.CrowdSecs || rep.Accuracy != batchOut.Accuracy {
		t.Fatalf("session secs/acc %v/%v vs batch %v/%v", rep.CrowdSecs, rep.Accuracy, batchOut.CrowdSecs, batchOut.Accuracy)
	}

	if resp := do(t, "DELETE", ts.URL+"/v1/runs/"+sessOut.ID, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete run: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestV1ConcurrentRunsOneVerifier: concurrent batch runs against one
// verifier succeed and return identical reports (run under -race in CI).
func TestV1ConcurrentRunsOneVerifier(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 7)
	payload := map[string]any{
		"document": json.RawMessage(docJSON(t, w.Document)),
		"batch":    10,
	}

	const n = 4
	outs := make([]batchRunResponse, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(payload)
			resp := do(t, "POST", ts.URL+"/v1/verifiers/"+info.ID+"/runs", body)
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				decodeJSON(t, resp, &outs[i])
			} else {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("run %d: status %d", i, codes[i])
		}
	}
	for i := 1; i < n; i++ {
		if outs[i].CrowdSecs != outs[0].CrowdSecs || outs[i].Correct != outs[0].Correct ||
			outs[i].Incorrect != outs[0].Incorrect || outs[i].Skipped != outs[0].Skipped {
			t.Fatalf("concurrent run %d diverged: %+v vs %+v", i, outs[i], outs[0])
		}
	}
}

func TestV1RejectsBadInput(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 3)

	for _, tc := range []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"corpus bad json", "POST", "/v1/corpora", []byte("{nope"), http.StatusBadRequest},
		{"corpus bad id", "POST", "/v1/corpora", []byte(`{"id": "bad id!"}`), http.StatusBadRequest},
		{"corpus bad csv", "POST", "/v1/corpora", []byte(`{"id": "x", "relations": [{"name": "r", "csv": "k,v\nx"}]}`), http.StatusUnprocessableEntity},
		{"verifier unknown corpus", "POST", "/v1/corpora/nope/verifiers", docJSON(t, w.Document), http.StatusNotFound},
		{"verifier bad json", "POST", "/v1/corpora/default/verifiers", []byte("{nope"), http.StatusBadRequest},
		{"verifier empty doc", "POST", "/v1/corpora/default/verifiers", []byte(`{}`), http.StatusUnprocessableEntity},
		{"run unknown verifier", "POST", "/v1/verifiers/v999/runs", docJSON(t, w.Document), http.StatusNotFound},
		{"run bad json", "POST", "/v1/verifiers/" + info.ID + "/runs", []byte("{nope"), http.StatusBadRequest},
		{"run bad mode", "POST", "/v1/verifiers/" + info.ID + "/runs", mustJSON(t, map[string]any{
			"document": json.RawMessage(docJSON(t, w.Document)), "mode": "teleport"}), http.StatusBadRequest},
		{"run bad ordering", "POST", "/v1/verifiers/" + info.ID + "/runs", mustJSON(t, map[string]any{
			"document": json.RawMessage(docJSON(t, w.Document)), "ordering": "alphabetical"}), http.StatusBadRequest},
		{"get unknown corpus", "GET", "/v1/corpora/nope", nil, http.StatusNotFound},
		{"get unknown verifier", "GET", "/v1/verifiers/nope", nil, http.StatusNotFound},
		{"get unknown run", "GET", "/v1/runs/nope", nil, http.StatusNotFound},
	} {
		resp := do(t, tc.method, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}

	// Unannotated documents cannot run in batch mode (422 with a hint)...
	stripped := &scrutinizer.Document{Title: "t", Sections: w.Document.Sections}
	for _, c := range w.Document.Claims {
		cc := *c
		cc.Truth = nil
		stripped.Claims = append(stripped.Claims, &cc)
	}
	resp := do(t, "POST", ts.URL+"/v1/verifiers/"+info.ID+"/runs", docJSON(t, stripped))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unannotated batch run: status %d", resp.StatusCode)
	}
	var e map[string]string
	decodeJSON(t, resp, &e)
	if !strings.Contains(e["error"], "session") {
		t.Errorf("batch-run error should point at session mode: %q", e["error"])
	}

	// ...but they can run as interactive sessions.
	body := mustJSON(t, map[string]any{
		"document": json.RawMessage(docJSON(t, stripped)), "mode": "session"})
	resp = do(t, "POST", ts.URL+"/v1/verifiers/"+info.ID+"/runs", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("unannotated session run: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHealthzServiceStats: /healthz surfaces the version, uptime and the
// per-corpus / per-verifier registry breakdown.
func TestHealthzServiceStats(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, "default", w.Document, 5)
	// Park one session so per-verifier session counts are visible.
	body := mustJSON(t, map[string]any{
		"document": json.RawMessage(docJSON(t, w.Document)), "mode": "session"})
	if resp := do(t, "POST", ts.URL+"/v1/verifiers/"+info.ID+"/runs", body); resp.StatusCode != http.StatusCreated {
		t.Fatalf("session run: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status  string `json:"status"`
		Version string `json:"version"`
		Uptime  *int   `json:"uptime_seconds"`
		Service struct {
			Corpora     int                       `json:"corpora"`
			Verifiers   int                       `json:"verifiers"`
			RunsStarted uint64                    `json:"runs_started"`
			PerCorpus   map[string]map[string]any `json:"per_corpus"`
			PerVerifier map[string]map[string]any `json:"per_verifier"`
		} `json:"service"`
		Sessions struct {
			Active  int            `json:"active"`
			ByOwner map[string]int `json:"by_owner"`
		} `json:"sessions"`
	}
	decodeJSON(t, resp, &h)
	if h.Status != "ok" || h.Version == "" || h.Uptime == nil {
		t.Fatalf("healthz basics = %+v", h)
	}
	if h.Service.Corpora != 1 || h.Service.Verifiers != 1 || h.Service.RunsStarted != 1 {
		t.Fatalf("service stats = %+v", h.Service)
	}
	if _, ok := h.Service.PerCorpus["default"]; !ok {
		t.Fatalf("per_corpus missing default: %+v", h.Service.PerCorpus)
	}
	pv, ok := h.Service.PerVerifier[info.ID]
	if !ok {
		t.Fatalf("per_verifier missing %s: %+v", info.ID, h.Service.PerVerifier)
	}
	if pv["active_sessions"] != float64(1) {
		t.Fatalf("per_verifier sessions = %v", pv["active_sessions"])
	}
	if h.Sessions.ByOwner[info.ID] != 1 {
		t.Fatalf("sessions by_owner = %v", h.Sessions.ByOwner)
	}
}

// TestStartupCorpusIsOrdinary: the corpus loaded at startup is an ordinary
// /v1 corpus on a durable daemon — its relations can be replaced and
// deleted while no verifier is bound to it, the mutations survive a
// restart, and deleting it outright is allowed; the next boot then
// registers a fresh startup corpus.
func TestStartupCorpusIsOrdinary(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*server, *httptest.Server, func()) {
		t.Helper()
		// Every boot loads the startup corpus afresh, as the process does.
		corpus, err := loadCorpus("", 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := scrutinizer.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newServer(corpus, serverConfig{parallel: 2, sessionTTL: time.Hour}, fs)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.routes())
		return s, ts, func() {
			ts.Close()
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	relations := func(ts *httptest.Server) int {
		t.Helper()
		resp := do(t, http.MethodGet, ts.URL+"/v1/corpora/default", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET default corpus: status %d", resp.StatusCode)
		}
		var info scrutinizer.CorpusInfo
		decodeJSON(t, resp, &info)
		return info.Relations
	}
	expect := func(method, path string, body []byte, want int, ts *httptest.Server) {
		t.Helper()
		resp := do(t, method, ts.URL+path, body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
	}

	s, ts, stop := boot()
	fresh := relations(ts)
	corpus, _ := s.svc.Corpus(defaultCorpusID)
	name := corpus.Names()[0]
	csv := relationCSV(t, corpus, name)
	expect(http.MethodPut, "/v1/corpora/default/relations/"+name, csv, http.StatusOK, ts) // replaced
	expect(http.MethodDelete, "/v1/corpora/default/relations/"+name, nil, http.StatusOK, ts)
	if got := relations(ts); got != fresh-1 {
		t.Fatalf("default corpus after relation delete: %d relations, want %d", got, fresh-1)
	}
	stop()

	// The journaled state of the startup corpus wins over the fresh load.
	s, ts, stop = boot()
	if got := relations(ts); got != fresh-1 || s.recovered.Corpora != 1 {
		t.Fatalf("after restart: %d relations (want %d), recovered %+v", got, fresh-1, s.recovered)
	}
	expect(http.MethodDelete, "/v1/corpora/default", nil, http.StatusOK, ts)
	expect(http.MethodGet, "/v1/corpora/default", nil, http.StatusNotFound, ts)
	stop()

	// Deleted and restarted: nothing is recovered, and boot registers a
	// fresh startup corpus.
	s, ts, stop = boot()
	defer stop()
	if s.recovered.Corpora != 0 {
		t.Fatalf("deleted startup corpus recovered: %+v", s.recovered)
	}
	if got := relations(ts); got != fresh {
		t.Fatalf("fresh startup corpus has %d relations, want %d", got, fresh)
	}
}
