package main

// The versioned /v1 surface: the multi-tenant resource API over
// scrutinizer.Service. Three resources mirror the library split:
//
//   - Corpora: named relational data sets. Created empty (or seeded from
//     inline CSV) and populated by PUT-ing relations as raw CSV bodies.
//     A corpus is mutable only until its first verifier exists; after
//     that relations are frozen, which is what makes lock-free sharing
//     with concurrent verification safe.
//   - Verifiers: trained model bundles over a corpus. Training fits the
//     feature pipeline once on the posted document and bootstraps the
//     classifiers from its annotations; every run then reuses that state.
//   - Runs: one document verification against a verifier. mode "batch"
//     answers every question with the simulated crowd in-process and
//     returns the report inline; mode "session" parks an interactive
//     session and returns its handle — the run ID is a session ID served
//     under /v1/runs/{id}.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/repro/scrutinizer"
)

// corpusCreateRequest is the POST /v1/corpora body. Relations may be
// seeded inline or uploaded afterwards via PUT
// /v1/corpora/{id}/relations/{name}.
type corpusCreateRequest struct {
	// ID names the corpus; empty mints "c1", "c2", ...
	ID string `json:"id"`
	// Relations optionally seeds the corpus: each entry is one relation
	// as CSV (first column is the key attribute).
	Relations []struct {
		Name string `json:"name"`
		CSV  string `json:"csv"`
	} `json:"relations"`
}

func (s *server) handleCorpusCreate(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req corpusCreateRequest
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &req); err != nil {
			httpError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
			return
		}
	}
	corpus := scrutinizer.NewCorpus()
	for _, rel := range req.Relations {
		parsed, err := scrutinizer.ReadRelationCSV(rel.Name, bytes.NewReader([]byte(rel.CSV)))
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, fmt.Sprintf("relation %q: %v", rel.Name, err))
			return
		}
		if err := corpus.Add(parsed); err != nil {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
	}
	id, err := s.svc.AddCorpus(req.ID, corpus)
	if err != nil {
		status := http.StatusBadRequest
		if _, taken := s.svc.Corpus(req.ID); taken {
			status = http.StatusConflict
		} else if errors.Is(err, scrutinizer.ErrNotUTF8) || errors.Is(err, scrutinizer.ErrCRLF) {
			// A relation the journal could not carry, refused like an
			// upload of one.
			status = http.StatusUnprocessableEntity
		}
		httpError(w, status, err.Error())
		return
	}
	info, _ := s.svc.CorpusInfo(id)
	writeJSON(w, http.StatusCreated, info)
}

func (s *server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"corpora": s.svc.Corpora()})
}

func (s *server) handleCorpusGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.svc.CorpusInfo(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no corpus %q", id))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *server) handleCorpusDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := s.svc.RemoveCorpus(id)
	if err != nil {
		httpError(w, journalStatus(err), err.Error())
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no corpus %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// journalStatus maps a mutation error to its HTTP status: a failed journal
// append means the service cannot durably accept writes right now (503);
// anything else is the client's fault.
func journalStatus(err error) int {
	if errors.Is(err, scrutinizer.ErrJournal) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, scrutinizer.ErrNoCorpus) {
		return http.StatusNotFound
	}
	return http.StatusUnprocessableEntity
}

// mutableCorpus resolves a corpus for mutation, enforcing the freeze
// rule: a corpus with verifiers is frozen (their runs read it
// concurrently). Caller must hold the corpus's lockCorpus mutex.
func (s *server) mutableCorpus(w http.ResponseWriter, id string) (*scrutinizer.Corpus, bool) {
	corpus, ok := s.svc.Corpus(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no corpus %q", id))
		return nil, false
	}
	for _, vi := range s.svc.Verifiers() {
		if vi.CorpusID == id {
			httpError(w, http.StatusConflict, fmt.Sprintf(
				"corpus %q is frozen: verifier %q is trained over it (delete the verifiers to mutate relations)", id, vi.ID))
			return nil, false
		}
	}
	return corpus, true
}

func (s *server) handleRelationPut(w http.ResponseWriter, r *http.Request) {
	mu := s.lockCorpus(r.PathValue("id"))
	mu.Lock()
	defer mu.Unlock()
	if _, ok := s.mutableCorpus(w, r.PathValue("id")); !ok {
		return
	}
	name := r.PathValue("name")
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	// PUT semantics: replace an existing relation of the same name. The
	// service parses the body and journals it verbatim before
	// acknowledging; unparseable or non-UTF-8 uploads map to 422.
	rel, replaced, err := s.svc.PutRelation(r.PathValue("id"), name, raw)
	if err != nil {
		httpError(w, journalStatus(err), err.Error())
		return
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, map[string]any{
		"relation": name,
		"rows":     rel.NumRows(),
		"attrs":    rel.NumAttrs(),
		"replaced": replaced,
	})
}

func (s *server) handleRelationDelete(w http.ResponseWriter, r *http.Request) {
	mu := s.lockCorpus(r.PathValue("id"))
	mu.Lock()
	defer mu.Unlock()
	if _, ok := s.mutableCorpus(w, r.PathValue("id")); !ok {
		return
	}
	name := r.PathValue("name")
	existed, err := s.svc.DropRelation(r.PathValue("id"), name)
	if err != nil {
		httpError(w, journalStatus(err), err.Error())
		return
	}
	if !existed {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no relation %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// verifierCreateRequest is the POST /v1/corpora/{id}/verifiers body: the
// training document (annotated claims become the classifier bootstrap)
// plus model options. A bare document body is accepted too.
type verifierCreateRequest struct {
	Training     json.RawMessage `json:"training"`
	Seed         int64           `json:"seed"`
	Tolerance    float64         `json:"tolerance"`
	TopK         int             `json:"topk"`
	EmbeddingDim int             `json:"embedding_dim"`
}

// verifierResponse enriches the registry info with the training
// document's feature coverage (trivially full) for symmetry with runs.
type verifierResponse struct {
	scrutinizer.VerifierInfo
	TrainingClaims int `json:"training_claims"`
}

func (s *server) handleVerifierCreate(w http.ResponseWriter, r *http.Request) {
	leave, ok := s.admit(w)
	if !ok {
		return
	}
	defer leave()
	corpusID := r.PathValue("id")
	if _, ok := s.svc.Corpus(corpusID); !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no corpus %q", corpusID))
		return
	}
	// Training is charged to the corpus being trained over.
	if !s.rateLimit(w, corpusID) {
		return
	}
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req verifierCreateRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	doc, err := readDocument(raw, req.Training)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Serialize against relation uploads on this corpus only — other
	// tenants' mutations and trainings proceed in parallel — so a
	// verifier cannot be trained mid-mutation (after this, the corpus is
	// frozen).
	mu := s.lockCorpus(corpusID)
	mu.Lock()
	v, err := s.svc.CreateVerifier(corpusID, doc, scrutinizer.Options{
		Seed:         req.Seed,
		Tolerance:    req.Tolerance,
		TopK:         req.TopK,
		EmbeddingDim: req.EmbeddingDim,
	})
	mu.Unlock()
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, verifierResponse{
		VerifierInfo:   v.Info(),
		TrainingClaims: len(doc.Claims),
	})
}

func (s *server) handleVerifierList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"verifiers": s.svc.Verifiers()})
}

// verifier resolves the handler's verifier or writes the 404.
func (s *server) verifier(w http.ResponseWriter, r *http.Request) (*scrutinizer.Verifier, bool) {
	id := r.PathValue("id")
	v, ok := s.svc.Verifier(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no verifier %q", id))
		return nil, false
	}
	return v, true
}

func (s *server) handleVerifierGet(w http.ResponseWriter, r *http.Request) {
	v, ok := s.verifier(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, v.Info())
}

func (s *server) handleVerifierDelete(w http.ResponseWriter, r *http.Request) {
	ok, err := s.svc.RemoveVerifier(r.PathValue("id"))
	if err != nil {
		httpError(w, journalStatus(err), err.Error())
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no such verifier")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// runRequest is the POST /v1/verifiers/{id}/runs envelope. Document is
// raw so a bare document body can be detected and accepted too. Seed only
// drives the "random" claim ordering — model and crowd seeding belong to
// the verifier.
type runRequest struct {
	Document json.RawMessage `json:"document"`
	// Mode is "batch" (default: simulated crowd, report inline) or
	// "session" (interactive: park a question/answer session).
	Mode            string  `json:"mode"`
	Team            int     `json:"team"`
	Checkers        int     `json:"checkers"`
	Batch           int     `json:"batch"`
	Parallelism     int     `json:"parallelism"`
	Ordering        string  `json:"ordering"`
	Seed            int64   `json:"seed"`
	SectionReadCost float64 `json:"section_read_cost"`
}

// coverageJSON shapes FeatureCoverage for responses.
type coverageJSON struct {
	EmbedRatio float64 `json:"embed_ratio"`
	TFIDFRatio float64 `json:"tfidf_ratio"`
}

// verifyResponse is a batch run's verification report.
type verifyResponse struct {
	Title       string          `json:"title"`
	Claims      int             `json:"claims"`
	Correct     int             `json:"correct"`
	Incorrect   int             `json:"incorrect"`
	Skipped     int             `json:"skipped"`
	Accuracy    float64         `json:"accuracy"`
	CrowdSecs   float64         `json:"crowd_seconds"`
	Batches     int             `json:"batches"`
	Parallelism int             `json:"parallelism"`
	WallMillis  int64           `json:"wall_ms"`
	Outcomes    []verifyOutcome `json:"outcomes"`
}

// batchRunResponse is the mode=batch report: the verification report plus
// run provenance (verifier, model generation, vocabulary coverage).
type batchRunResponse struct {
	verifyResponse
	Verifier        string       `json:"verifier"`
	Mode            string       `json:"mode"`
	ModelGeneration uint64       `json:"model_generation"`
	Coverage        coverageJSON `json:"coverage"`
}

// sessionCreateResponse is a new session's handle plus the first batch of
// questions, so a client can start answering without a second round trip.
type sessionCreateResponse struct {
	ID        string                        `json:"id"`
	Claims    int                           `json:"claims"`
	Progress  scrutinizer.SessionProgress   `json:"progress"`
	Questions []scrutinizer.SessionQuestion `json:"questions"`
}

// sessionRunResponse is the mode=session handle: the session payload
// plus run provenance and the /v1 links to drive it.
type sessionRunResponse struct {
	sessionCreateResponse
	Verifier string            `json:"verifier"`
	Mode     string            `json:"mode"`
	Coverage coverageJSON      `json:"coverage"`
	Links    map[string]string `json:"links"`
}

func (s *server) handleRunCreate(w http.ResponseWriter, r *http.Request) {
	leave, ok := s.admit(w)
	if !ok {
		return
	}
	defer leave()
	v, ok := s.verifier(w, r)
	if !ok {
		return
	}
	// Runs are charged to the verifier they execute against — the /v1
	// surface's tenant unit.
	if !s.rateLimit(w, v.ID()) {
		return
	}
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req runRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	doc, err := readDocument(raw, req.Document)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Semantic document problems (no claims, bad section indexes) are the
	// client's fault in either mode; surface them as 422 up front rather
	// than letting session mode blame server capacity.
	if err := doc.Validate(); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if len(doc.Claims) == 0 {
		httpError(w, http.StatusUnprocessableEntity, "document has no claims")
		return
	}
	ordering, err := parseOrdering(req.Ordering)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	parallelism := req.Parallelism
	if parallelism <= 0 {
		parallelism = s.parallel
	}
	vopts := scrutinizer.VerifyOptions{
		BatchSize:       req.Batch,
		SectionReadCost: req.SectionReadCost,
		Ordering:        ordering,
		Parallelism:     parallelism,
		Seed:            req.Seed,
	}
	cov := v.Coverage(doc)
	covJSON := coverageJSON{EmbedRatio: cov.EmbedRatio(), TFIDFRatio: cov.TFIDFRatio()}

	switch req.Mode {
	case "", "batch":
		for _, c := range doc.Claims {
			if c.Truth == nil {
				httpError(w, http.StatusUnprocessableEntity, fmt.Sprintf(
					"claim %d has no ground-truth annotation; batch runs answer from the simulated crowd (use mode \"session\" for human answers)", c.ID))
				return
			}
		}
		team := req.Team
		if team <= 0 {
			team = 3
		}
		// Batch runs hold a quota slot for the whole request.
		release, ok := s.acquireRun(w, v.ID())
		if !ok {
			return
		}
		defer release()
		ctx, cancel := s.runCtx(r)
		defer cancel()
		start := time.Now()
		run, err := v.StartRun(ctx, doc)
		if err != nil {
			// The document was validated above: what remains is a request
			// context that already expired or was cancelled.
			httpError(w, verifyErrStatus(err), err.Error())
			return
		}
		crowd, err := v.NewTeam(team)
		if err != nil {
			run.Close()
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		res, err := run.Verify(ctx, crowd, vopts)
		// Batch runs are request-scoped: drop the engine before encoding
		// the response.
		run.Close()
		if err != nil {
			httpError(w, verifyErrStatus(err), err.Error())
			return
		}
		resp := batchRunResponse{
			verifyResponse: verifyResponse{
				Title:       doc.Title,
				Claims:      len(doc.Claims),
				Accuracy:    res.Accuracy(),
				CrowdSecs:   res.Seconds,
				Batches:     res.Batches,
				Parallelism: parallelism,
				WallMillis:  time.Since(start).Milliseconds(),
			},
			Verifier:        v.ID(),
			Mode:            "batch",
			ModelGeneration: v.Generation(),
			Coverage:        covJSON,
		}
		for _, o := range res.Outcomes {
			vo := toVerifyOutcome(o)
			switch o.Verdict {
			case scrutinizer.VerdictCorrect:
				resp.Correct++
			case scrutinizer.VerdictIncorrect:
				resp.Incorrect++
			default:
				resp.Skipped++
			}
			resp.Outcomes = append(resp.Outcomes, vo)
		}
		writeJSON(w, http.StatusOK, resp)

	case "session":
		// Interactive runs count against the same per-tenant quota as
		// batch runs, but the slot is carried by the session registry's
		// owner tag (freed when the session ends), not held here.
		if !s.runQuotaFree(w, v.ID()) {
			return
		}
		ctx, cancel := s.runCtx(r)
		defer cancel()
		sess, err := v.StartSession(ctx, s.sessions, doc, scrutinizer.SessionOptions{
			Verify:   vopts,
			Checkers: req.Checkers,
		})
		if err != nil {
			// The document was validated above; what remains is registry
			// pressure (session cap reached) — a genuine 503 — or a dead
			// request context.
			status := http.StatusServiceUnavailable
			if errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
			httpError(w, status, err.Error())
			return
		}
		id := sess.ID()
		writeJSON(w, http.StatusCreated, sessionRunResponse{
			sessionCreateResponse: sessionCreateResponse{
				ID:        id,
				Claims:    len(doc.Claims),
				Progress:  sess.Progress(),
				Questions: sess.Questions(),
			},
			Verifier: v.ID(),
			Mode:     "session",
			Coverage: covJSON,
			Links: map[string]string{
				"run":       "/v1/runs/" + id,
				"questions": "/v1/runs/" + id + "/questions",
				"answers":   "/v1/runs/" + id + "/answers",
				"report":    "/v1/runs/" + id + "/report",
			},
		})

	default:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown run mode %q (batch or session)", req.Mode))
	}
}
