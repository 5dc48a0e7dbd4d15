package main

// The HTTP half of the crash-recovery harness: a daemon with a file-backed
// store is driven partway through a /v1 walkthrough, cut mid-journal-write
// by fault injection (leaving a torn frame on disk, the shape of a process
// dying inside Append), restarted over the same data directory, and the
// recovered walkthrough is finished and compared bit for bit against a
// server that never crashed.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/repro/scrutinizer"
	istore "github.com/repro/scrutinizer/internal/store"
)

// recoveryTestWorld keeps replay cheap: the crashed journal is replayed on
// every restart.
func recoveryTestWorld(t *testing.T) *scrutinizer.World {
	t.Helper()
	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = 16
	cfg.NumSections = 3
	w, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// storedServer builds a server over st (nil = ephemeral) and serves it.
func storedServer(t *testing.T, w *scrutinizer.World, st scrutinizer.Store) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(w.Corpus, serverConfig{parallel: 4, sessionTTL: time.Hour}, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

// halfDoc is the first half of the world document (the session under test).
func halfDoc(w *scrutinizer.World) *scrutinizer.Document {
	half := len(w.Document.Claims) / 2
	return &scrutinizer.Document{Title: "recovery run", Sections: w.Document.Sections,
		Claims: w.Document.Claims[:half]}
}

// createVerifier trains a verifier over the default corpus and returns its ID.
func createVerifier(t *testing.T, baseURL string, w *scrutinizer.World) string {
	t.Helper()
	resp := do(t, "POST", baseURL+"/v1/corpora/default/verifiers", docJSON(t, w.Document))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create verifier: status %d", resp.StatusCode)
	}
	var created verifierResponse
	decodeJSON(t, resp, &created)
	return created.ID
}

// startSessionRun parks a mode=session run and returns its ID.
func startSessionRun(t *testing.T, baseURL, verifierID string, doc *scrutinizer.Document) string {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"document": json.RawMessage(docJSON(t, doc)),
		"mode":     "session",
		"batch":    5,
	})
	resp := do(t, "POST", baseURL+"/v1/verifiers/"+verifierID+"/runs", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("start session run: status %d", resp.StatusCode)
	}
	var run sessionRunResponse
	decodeJSON(t, resp, &run)
	return run.ID
}

// pendingQuestions fetches the run's question queue.
func pendingQuestions(t *testing.T, baseURL, runID string) ([]scrutinizer.SessionQuestion, bool) {
	t.Helper()
	resp := do(t, "GET", baseURL+"/v1/runs/"+runID+"/questions", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("questions: status %d", resp.StatusCode)
	}
	var qr struct {
		Questions []scrutinizer.SessionQuestion `json:"questions"`
		Done      bool                          `json:"done"`
	}
	decodeJSON(t, resp, &qr)
	return qr.Questions, qr.Done
}

// answerFirst posts the harness's fixed answer to the first pending
// question. Both the reference server and the crashed-then-recovered server
// answer every question with this same deterministic checker, which is what
// makes their final reports comparable bit for bit.
func answerFirst(t *testing.T, baseURL, runID string) {
	t.Helper()
	qs, done := pendingQuestions(t, baseURL, runID)
	if done || len(qs) == 0 {
		t.Fatal("no pending questions to answer")
	}
	body, _ := json.Marshal(map[string]any{
		"claim_id": qs[0].ClaimID, "value": "suggestion", "seconds": 2,
	})
	resp := do(t, "POST", baseURL+"/v1/runs/"+runID+"/answers", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// finishRun answers until the run reports done, then returns its report
// with the server-assigned ID blanked for cross-server comparison.
func finishRun(t *testing.T, baseURL, runID string) sessionReportResponse {
	t.Helper()
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("run did not converge")
		}
		if _, done := pendingQuestions(t, baseURL, runID); done {
			break
		}
		answerFirst(t, baseURL, runID)
	}
	resp := do(t, "GET", baseURL+"/v1/runs/"+runID+"/report", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", resp.StatusCode)
	}
	var rep sessionReportResponse
	decodeJSON(t, resp, &rep)
	rep.ID = ""
	return rep
}

// TestRecoveryCrashMidWriteHTTP is the headline harness: walk the /v1 API
// partway (train a verifier, park an interactive run, post some answers),
// cut the store mid-append so the journal ends in a torn frame, restart the
// daemon over the same directory, and assert the recovered run finishes
// with a report bit-identical to an uninterrupted server's.
func TestRecoveryCrashMidWriteHTTP(t *testing.T) {
	w := recoveryTestWorld(t)
	doc := halfDoc(w)

	// Reference: a server that never crashes (ephemeral store is fine —
	// durability must not change behavior).
	_, refTS := storedServer(t, w, nil)
	refVID := createVerifier(t, refTS.URL, w)
	refRunID := startSessionRun(t, refTS.URL, refVID, doc)
	want := finishRun(t, refTS.URL, refRunID)

	// Crashing server: file store wrapped in fault injection. Journal
	// records: 1 default-corpus create, 2 verifier create, 3 session
	// create, 4-5 two answers — the sixth append dies mid-frame.
	dir := t.TempDir()
	fs, err := scrutinizer.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	faulty := scrutinizer.NewFaultyStore(fs, 5, true)
	_, crashTS := storedServer(t, w, faulty)
	vid := createVerifier(t, crashTS.URL, w)
	runID := startSessionRun(t, crashTS.URL, vid, doc)
	answers := 0
	for !faulty.Tripped() {
		if answers > 100 {
			t.Fatal("fault injector never tripped")
		}
		answerFirst(t, crashTS.URL, runID)
		answers++
	}
	if answers < 3 {
		t.Fatalf("cut too early: %d answers posted", answers)
	}

	// "Crash": abandon the live server, close the journal handle, reopen
	// the directory. The torn frame left by the injected mid-write cut
	// must be detected and truncated.
	crashTS.Close()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := scrutinizer.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if st := fs2.Stats(); !st.TornTailRecovered || st.Records != 5 {
		t.Fatalf("reopened store should truncate the torn sixth record: %+v", st)
	}

	s2, ts2 := storedServer(t, w, fs2)
	if s2.recovered.Sessions != 1 || s2.recovered.Verifiers != 1 || s2.recovered.Corpora != 1 {
		t.Fatalf("recovery stats: %+v", s2.recovered)
	}

	// The run survived the crash under its original ID and finishes with
	// the uninterrupted server's exact report. (The answer that died
	// mid-journal-write is replayed by the harness like any other — both
	// sides answer every question identically, so the lost write only
	// rewinds progress, never changes the outcome.)
	if resp := do(t, "GET", ts2.URL+"/v1/runs/"+runID, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered run not found: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	got := finishRun(t, ts2.URL, runID)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered report diverged:\n  got  %+v\n  want %+v", got, want)
	}

	// /healthz on the recovered daemon serves the store and recovery
	// stats for operators.
	resp := do(t, "GET", ts2.URL+"/healthz", nil)
	var health struct {
		Store struct {
			Backend struct {
				Backend string `json:"backend"`
				Records uint64 `json:"journal_records"`
			} `json:"backend"`
			Recovered scrutinizer.RecoveryStats `json:"recovered"`
		} `json:"store"`
	}
	decodeJSON(t, resp, &health)
	if health.Store.Backend.Backend != "file" || health.Store.Recovered.Sessions != 1 {
		t.Fatalf("healthz store section = %+v", health.Store)
	}
	if health.Store.Backend.Records < 5 {
		t.Fatalf("finishing the run should have journaled more answers: %+v", health.Store.Backend)
	}
}

// journalTail replays st and returns its last n records as "op corpus
// verifier relation" lines, in journal order.
func journalTail(t *testing.T, st scrutinizer.Store, n int) []string {
	t.Helper()
	var all []string
	if err := st.Replay(func(rec *istore.Record) error {
		all = append(all, fmt.Sprintf("%s %s %s %s", rec.Op, rec.Corpus, rec.Verifier, rec.Relation))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(all) < n {
		t.Fatalf("journal holds %d records, want at least %d: %q", len(all), n, all)
	}
	return all[len(all)-n:]
}

// TestRecoveryCorpusDeleteLeavesNoOrphans: DELETE /v1/corpora/{id} cascades
// into the persistence layer — the journal records the corpus's whole
// lifecycle ending in its delete, and a restart materializes nothing of the
// corpus, its relations or its verifiers.
func TestRecoveryCorpusDeleteLeavesNoOrphans(t *testing.T) {
	w := recoveryTestWorld(t)
	mem := scrutinizer.NewMemoryStore()
	_, ts := storedServer(t, w, mem)

	names := w.Corpus.Names()
	body, _ := json.Marshal(map[string]any{
		"id": "tmp",
		"relations": []map[string]string{
			{"name": names[0], "csv": string(relationCSV(t, w.Corpus, names[0]))},
		},
	})
	if resp := do(t, "POST", ts.URL+"/v1/corpora", body); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create corpus: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := do(t, "PUT", ts.URL+"/v1/corpora/tmp/relations/"+names[1],
		relationCSV(t, w.Corpus, names[1])); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload relation: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp := do(t, "POST", ts.URL+"/v1/corpora/tmp/verifiers", docJSON(t, w.Document))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create verifier: status %d", resp.StatusCode)
	}
	var created verifierResponse
	decodeJSON(t, resp, &created)

	if resp := do(t, "DELETE", ts.URL+"/v1/corpora/tmp", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete corpus: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// One corpus.delete record carries the cascade: replay drops the
	// corpus's verifiers with it.
	want := []string{
		"corpus.create tmp  ",
		"relation.put tmp  " + names[1],
		"verifier.create tmp " + created.ID + " ",
		"corpus.delete tmp  ",
	}
	if got := journalTail(t, mem, len(want)); !reflect.DeepEqual(got, want) {
		t.Fatalf("journal tail = %q, want %q", got, want)
	}

	// A restart over the same store materializes only the default corpus:
	// the tmp corpus, its relations and its verifier are all tombstoned.
	s2, ts2 := storedServer(t, w, mem)
	if s2.recovered.Corpora != 1 || s2.recovered.Verifiers != 0 {
		t.Fatalf("delete cascade resurrected state: %+v", s2.recovered)
	}
	if resp := do(t, "GET", ts2.URL+"/v1/corpora/tmp", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tmp corpus survived restart: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := do(t, "GET", ts2.URL+"/v1/verifiers/"+created.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("verifier %s survived restart: status %d", created.ID, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestRecoveryVerifierDeletePersisted: DELETE /v1/verifiers/{id} is
// journaled and the verifier stays gone across a restart.
func TestRecoveryVerifierDeletePersisted(t *testing.T) {
	w := recoveryTestWorld(t)
	mem := scrutinizer.NewMemoryStore()
	_, ts := storedServer(t, w, mem)

	vid := createVerifier(t, ts.URL, w)
	if resp := do(t, "DELETE", ts.URL+"/v1/verifiers/"+vid, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete verifier: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	want := []string{
		"verifier.create default " + vid + " ",
		"verifier.delete default " + vid + " ",
	}
	if got := journalTail(t, mem, len(want)); !reflect.DeepEqual(got, want) {
		t.Fatalf("journal tail = %q, want %q", got, want)
	}

	s2, ts2 := storedServer(t, w, mem)
	if s2.recovered.Verifiers != 0 {
		t.Fatalf("deleted verifier resurrected: %+v", s2.recovered)
	}
	if resp := do(t, "GET", ts2.URL+"/v1/verifiers/"+vid, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("verifier %s survived restart: status %d", vid, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestRecoveryDeleteEndsSessionsHTTP: DELETE /v1/verifiers/{id} and DELETE
// /v1/corpora/{id} end the deleted verifier's session runs, so answering
// one is a 404 at once, and a restart re-parks nothing and skips nothing.
func TestRecoveryDeleteEndsSessionsHTTP(t *testing.T) {
	w := recoveryTestWorld(t)
	for _, tc := range []struct {
		name string
		path func(vid string) string
	}{
		{"verifier", func(vid string) string { return "/v1/verifiers/" + vid }},
		{"corpus", func(string) string { return "/v1/corpora/default" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := scrutinizer.NewMemoryStore()
			_, ts := storedServer(t, w, mem)
			vid := createVerifier(t, ts.URL, w)
			rid := startSessionRun(t, ts.URL, vid, halfDoc(w))
			answerFirst(t, ts.URL, rid)
			qs, _ := pendingQuestions(t, ts.URL, rid)
			if len(qs) == 0 {
				t.Fatal("no pending questions")
			}

			if resp := do(t, "DELETE", ts.URL+tc.path(vid), nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("delete: status %d", resp.StatusCode)
			} else {
				resp.Body.Close()
			}
			body, _ := json.Marshal(map[string]any{"claim_id": qs[0].ClaimID, "value": "suggestion", "seconds": 2})
			if resp := do(t, "POST", ts.URL+"/v1/runs/"+rid+"/answers", body); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("answer after delete: status %d, want 404", resp.StatusCode)
			} else {
				resp.Body.Close()
			}

			s2, _ := storedServer(t, w, mem)
			if s2.recovered.Sessions != 0 || s2.recovered.SessionsSkipped != 0 {
				t.Fatalf("recovery after delete: %+v", s2.recovered)
			}
		})
	}
}

// TestRecoveryRefusesNonUTF8Upload: the journal's JSON strings cannot
// carry invalid UTF-8, so a relation PUT whose body or percent-encoded name
// holds such bytes is refused with 422 instead of being acknowledged and
// then recovered as a different relation (two keys that differ only in
// invalid bytes used to collapse into one and fail the boot outright). A
// restart over the same data directory still boots, with only the
// accepted upload.
func TestRecoveryRefusesNonUTF8Upload(t *testing.T) {
	w := recoveryTestWorld(t)
	dir := t.TempDir()
	fs, err := scrutinizer.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := storedServer(t, w, fs)
	if resp := do(t, "POST", ts.URL+"/v1/corpora", []byte(`{"id": "up"}`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create corpus: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	for _, tc := range []struct{ name, body string }{
		{"r", "key,x\na\xff,1\na\xfe,2\n"},
		{"%FF", "key,x\na,1\n"},
	} {
		resp := do(t, "PUT", ts.URL+"/v1/corpora/up/relations/"+tc.name, []byte(tc.body))
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("PUT relation %q: status %d, want 422", tc.name, resp.StatusCode)
		}
	}
	if resp := do(t, "PUT", ts.URL+"/v1/corpora/up/relations/ok", []byte("key,x\na,1\n")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT valid relation: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	ts.Close()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := scrutinizer.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	s2, _ := storedServer(t, w, fs2)
	c, ok := s2.svc.Corpus("up")
	if !ok {
		t.Fatal("corpus up not recovered")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "ok" {
		t.Fatalf("recovered corpus up holds %q, want only %q", names, "ok")
	}
}

// TestRecoveryRefusesCRLFCorpus: a corpus is journaled as its relations'
// CSV dumps, which read a quoted "\r\n" back as "\n", so POST /v1/corpora
// with a relation whose row key holds "\r\n" is refused with 422, as a
// relation upload the journal could not carry is, instead of being
// acknowledged and then recovered with a different key.
func TestRecoveryRefusesCRLFCorpus(t *testing.T) {
	w := recoveryTestWorld(t)
	fs, err := scrutinizer.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	s, ts := storedServer(t, w, fs)
	body := []byte(`{"id": "crlf", "relations": [{"name": "r", "csv": "Index,a\n\"x\r\r\ny\",1\n"}]}`)
	resp := do(t, "POST", ts.URL+"/v1/corpora", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("POST corpus: status %d, want 422", resp.StatusCode)
	}
	if _, ok := s.svc.Corpus("crlf"); ok {
		t.Fatal("refused corpus is registered")
	}
}

// TestCorpusCreateJournalDown503: when the journal refuses an append, a
// corpus create answers 503 like a relation PUT does (the client should
// retry, its request was fine), registers nothing, and a duplicate id is
// still a 409 (refused before the journal is asked).
func TestCorpusCreateJournalDown503(t *testing.T) {
	w := recoveryTestWorld(t)
	// The default corpus's create is the one append that succeeds.
	_, ts := storedServer(t, w, scrutinizer.NewFaultyStore(scrutinizer.NewMemoryStore(), 1, false))
	name := w.Corpus.Names()[0]
	csv := relationCSV(t, w.Corpus, name)
	for _, tc := range []struct {
		method, path string
		body         []byte
		want         int
	}{
		{"POST", "/v1/corpora", []byte(`{"id": "x"}`), http.StatusServiceUnavailable},
		{"GET", "/v1/corpora/x", nil, http.StatusNotFound},
		{"PUT", "/v1/corpora/default/relations/r", csv, http.StatusServiceUnavailable},
		{"POST", "/v1/corpora", []byte(`{"id": "default"}`), http.StatusConflict},
	} {
		resp := do(t, tc.method, ts.URL+tc.path, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}
