package scrutinizer

// This file is the multi-tenant service API: the decoupling of long-lived
// trained state from per-document work that lets one process amortize
// learning across many checking tasks (the paper's premise — IEA checkers
// verify report after report against the same statistical corpus).
//
// Three resources:
//
//   - Corpus: registered relational data, shared read-only by everything
//     bound to it, with one tentative-execution QueryCache per corpus.
//   - Verifier: a corpus-bound trained model bundle — the feature pipeline
//     fitted once on a training document, classifiers trained on its
//     annotations and warm-start retrainable as new checked claims
//     accumulate. Starting a run gives it an O(1) copy-on-write clone of
//     the verifier's engine, so any number of concurrent runs never race
//     batch-boundary retraining.
//   - Run: one document verification — batch (Run.Verify) or interactive
//     (Verifier.StartSession) — executed against a Verifier.
//
// Service is the registry tying them together for multi-tenant serving
// (cmd/scrutinizerd exposes it as the versioned /v1 REST surface).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/embed"
	"github.com/repro/scrutinizer/internal/feature"
	"github.com/repro/scrutinizer/internal/session"
	"github.com/repro/scrutinizer/internal/store"
)

// FeatureCoverage reports how much of a document's text a verifier's
// fitted vocabularies cover (the out-of-vocabulary signal when a verifier
// trained on one document serves another).
type FeatureCoverage = feature.Coverage

// Verifier is a corpus-bound, trained, reusable model bundle: the feature
// pipeline is fitted once on a training document and the four property
// classifiers are trained on its annotated claims. A Verifier is safe for
// concurrent use — StartRun and StartSession give each run an O(1)
// copy-on-write clone of the trained engine, and Retrain trains that engine
// in place without disturbing live clones — so one Verifier can serve any
// number of documents and concurrent runs without refitting features or
// racing retraining.
type Verifier struct {
	id       string // assigned by Service; "" for standalone verifiers
	corpusID string
	svc      *Service // owning registry; nil for standalone verifiers
	corpus   *Corpus
	pipe     *feature.Pipeline
	opts     Options
	created  time.Time

	// mu guards base: Retrain trains it under the write lock, StartRun
	// clones it under the read lock. The models are copy-on-write, so a
	// Retrain never disturbs the clones live runs hold.
	mu      sync.RWMutex
	base    *core.Engine // trained state; every run engine is a Clone of it
	trained int          // annotated claims in the last (re)train

	// runs counts runs + sessions started. An atomic, not mu-guarded:
	// StartRun is on the per-request hot path, and bumping a counter must
	// not contend with Retrain holding the model lock.
	runs atomic.Uint64
}

// NewVerifier builds a verifier over a corpus from a training document:
// the feature pipeline (embeddings + TF-IDF) is fitted on the document's
// text, and the classifiers are trained on its annotated claims (those
// with Truth set — "a database of previously checked claims"). A document
// with no annotations (see Document.Unannotated) yields a cold-start
// verifier: runs still work, they just cost the checkers more questions
// until run-level retraining warms the clones up.
//
// The verifier is not welded to the training document: StartRun and
// StartSession accept any document over the same corpus, reusing the
// fitted pipeline and trained classifiers.
func NewVerifier(corpus *Corpus, training *Document, opts Options) (*Verifier, error) {
	if corpus == nil || training == nil {
		return nil, fmt.Errorf("scrutinizer: corpus and training document are required")
	}
	if err := training.Validate(); err != nil {
		return nil, err
	}
	if len(training.Claims) == 0 {
		return nil, fmt.Errorf("scrutinizer: training document has no claims")
	}
	dim := opts.EmbeddingDim
	if dim <= 0 {
		dim = 32
	}
	var sentences, texts []string
	for _, c := range training.Claims {
		sentences = append(sentences, c.Sentence)
		texts = append(texts, c.Text)
	}
	pipe, err := feature.Fit(sentences, texts, feature.Config{
		Embedding: embed.Config{Dim: dim, Seed: opts.Seed},
		MinDF:     1,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	if opts.Cost != (CostModel{}) {
		cfg.Cost = opts.Cost
	}
	if opts.Tolerance > 0 {
		cfg.Tolerance = opts.Tolerance
	}
	if opts.TopK > 0 {
		cfg.TopK = opts.TopK
	}
	cfg.Classifier.Seed = opts.Seed
	cfg.QueryCache = opts.QueryCache
	engine, err := core.NewEngine(corpus, pipe, cfg)
	if err != nil {
		return nil, err
	}
	v := &Verifier{
		corpus:  corpus,
		pipe:    pipe,
		opts:    opts,
		created: time.Now(),
		base:    engine,
	}
	if err := v.Retrain(training.Claims); err != nil {
		return nil, err
	}
	return v, nil
}

// ID returns the verifier's registry identifier ("" when the verifier was
// built standalone rather than through a Service).
func (v *Verifier) ID() string { return v.id }

// CorpusID returns the registry identifier of the verifier's corpus (""
// for standalone verifiers).
func (v *Verifier) CorpusID() string { return v.corpusID }

// Corpus returns the relational corpus the verifier is bound to.
func (v *Verifier) Corpus() *Corpus { return v.corpus }

// Retrain refits the classifiers on a set of annotated claims (claims
// without Truth are skipped). When the label vocabulary is stable the
// underlying models warm-start from their previous weights. Retraining
// affects only runs started afterwards: live runs keep the models they
// cloned.
func (v *Verifier) Retrain(annotated []*Claim) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.base.Train(annotated); err != nil {
		return err
	}
	n := 0
	for _, c := range annotated {
		if c != nil && c.Truth != nil {
			n++
		}
	}
	v.trained = n
	return nil
}

// StartRun starts one batch verification of a document against the
// verifier's trained state. The run owns a private engine, a Clone of the
// verifier's: its batch-boundary retraining warms it up over the course of
// the run without ever touching the verifier, so concurrent runs are
// independent and deterministic.
func (v *Verifier) StartRun(ctx context.Context, doc *Document) (*Run, error) {
	if doc == nil {
		return nil, fmt.Errorf("scrutinizer: nil document")
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	if len(doc.Claims) == 0 {
		return nil, fmt.Errorf("scrutinizer: document has no claims")
	}
	// Cloning is O(1) (the models are copy-on-write), but refuse work for
	// a caller that has already hung up rather than hand out an engine.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scrutinizer: start run: %w", err)
	}
	v.mu.RLock()
	engine := v.base.Clone()
	v.mu.RUnlock()
	v.runs.Add(1)
	return &Run{verifier: v, engine: engine, doc: doc}, nil
}

// StartSession parks a document in an interactive verification session
// registered with m, executing against a private clone of the verifier's
// engine (the interactive counterpart of StartRun).
// The session is tagged with the verifier's ID for registry statistics.
// When the verifier's service has a store attached, the session (document
// plus options) is journaled before the handle is returned — and every
// accepted answer after it — so a crash re-parks the session by replay.
func (v *Verifier) StartSession(ctx context.Context, m *SessionManager, doc *Document, opts SessionOptions) (*Session, error) {
	if m == nil {
		return nil, fmt.Errorf("scrutinizer: nil session manager")
	}
	r, err := v.StartRun(ctx, doc)
	if err != nil {
		return nil, err
	}
	sess, err := m.Create(ctx, r.engine, doc, v.sessionOptions(opts))
	if err != nil {
		r.Close()
		return nil, err
	}
	if v.svc != nil && v.svc.store != nil {
		if err := v.svc.journalSessionCreate(v.id, sess.ID(), doc, opts); err != nil {
			// Not durable, not acknowledged: take the session back out.
			// The removal's own journal hook fails against the same dead
			// store, which is fine — the journal then holds neither.
			m.Remove(sess.ID())
			return nil, err
		}
	}
	return sess, nil
}

// RestoreSession rebuilds a session from a snapshot by replaying its
// answer log against a fresh clone of the verifier's engine. The verifier
// must be in the same trained state as when the snapshotted session was
// created (same corpus, training data, options and seed, no intervening
// Retrain); replay then reaches a bit-identical session state.
func (v *Verifier) RestoreSession(ctx context.Context, m *SessionManager, doc *Document, opts SessionOptions, snap *SessionSnapshot) (*Session, error) {
	if m == nil {
		return nil, fmt.Errorf("scrutinizer: nil session manager")
	}
	r, err := v.StartRun(ctx, doc)
	if err != nil {
		return nil, err
	}
	sess, err := m.Restore(ctx, r.engine, doc, v.sessionOptions(opts), snap)
	if err != nil {
		r.Close()
		return nil, err
	}
	return sess, nil
}

// sessionOptions converts facade session options to the internal form,
// tagging the session with the verifier's ID as its owner.
func (v *Verifier) sessionOptions(opts SessionOptions) session.Options {
	parallelism := opts.Verify.Parallelism
	if parallelism <= 0 {
		parallelism = core.DefaultParallelism()
	}
	return session.Options{Owner: v.id, Verify: core.VerifyConfig{
		BatchSize:       opts.Verify.BatchSize,
		SectionReadCost: opts.Verify.SectionReadCost,
		Ordering:        opts.Verify.Ordering,
		Parallelism:     parallelism,
		Seed:            opts.Verify.Seed,
		Checkers:        opts.Checkers,
	}}
}

// NewTeam creates n simulated domain experts with near-perfect judgement,
// seeded from the verifier's options so crowd behaviour is reproducible.
func (v *Verifier) NewTeam(n int) (*Team, error) {
	return crowd.NewTeam("W", n, 0.97, v.opts.Seed+1)
}

// Coverage aggregates the fitted vocabularies' coverage of a document —
// how much of its text the verifier's training vocabulary knows. Serve it
// alongside run results so operators can spot documents drifting away
// from the training distribution.
func (v *Verifier) Coverage(doc *Document) FeatureCoverage {
	var cov FeatureCoverage
	if doc == nil {
		return cov
	}
	for _, c := range doc.Claims {
		cov = cov.Add(v.pipe.Coverage(c.Sentence, c.Text))
	}
	return cov
}

// Generation returns the model generation of the verifier's trained state
// (how many times Retrain refit the classifiers).
func (v *Verifier) Generation() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.base.Generation()
}

// TrainedOn returns the number of annotated claims in the verifier's last
// (re)train; 0 for a cold-start verifier.
func (v *Verifier) TrainedOn() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.trained
}

// Runs returns how many runs and sessions the verifier has started.
func (v *Verifier) Runs() uint64 { return v.runs.Load() }

// Created returns the verifier's construction time.
func (v *Verifier) Created() time.Time { return v.created }

// FeatureDim returns the fitted feature-space width (embedding dimension
// plus TF-IDF vocabulary size).
func (v *Verifier) FeatureDim() int { return v.pipe.Dim() }

// Run is one document verification against a Verifier: a private clone of
// the verifier's trained engine plus the document under check. A Run is single-use (Verify consumes it) and not safe for
// concurrent use; start one Run per goroutine instead — they are cheap,
// which is the point of the split.
type Run struct {
	verifier *Verifier
	engine   *core.Engine
	doc      *claims.Document
}

// Document returns the document under verification.
func (r *Run) Document() *Document { return r.doc }

// Engine exposes the run's private engine for advanced use (examples,
// benches, diagnostics).
func (r *Run) Engine() *core.Engine { return r.engine }

// Coverage reports the verifier's vocabulary coverage of this run's
// document.
func (r *Run) Coverage() FeatureCoverage { return r.verifier.Coverage(r.doc) }

// Verify runs the full Algorithm 1 loop over the run's document with a
// simulated crowd team answering every question screen. Batch-boundary
// retraining mutates only the run's private engine.
func (r *Run) Verify(ctx context.Context, team *Team, opts VerifyOptions) (*Result, error) {
	parallelism := opts.Parallelism
	if parallelism <= 0 {
		parallelism = core.DefaultParallelism()
	}
	res, err := r.engine.Verify(ctx, r.doc, team, core.VerifyConfig{
		BatchSize:       opts.BatchSize,
		SectionReadCost: opts.SectionReadCost,
		Ordering:        opts.Ordering,
		Parallelism:     parallelism,
		Seed:            opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Result{doc: r.doc, Outcomes: res.Outcomes, Seconds: res.Seconds, Batches: res.Batches}, nil
}

// VerifyClaim verifies a single claim of the run's document (it must carry
// a Truth annotation for the simulated crowd to answer from).
func (r *Run) VerifyClaim(ctx context.Context, c *Claim, team *Team) (*Outcome, error) {
	return r.engine.VerifyClaim(ctx, c, team)
}

// VerifyClaimWith verifies a single claim through a custom Oracle.
func (r *Run) VerifyClaimWith(ctx context.Context, c *Claim, oracle Oracle) (*Outcome, error) {
	return r.engine.VerifyClaimWith(ctx, c, oracle)
}

// Close drops the run's private engine so it can be collected even while
// the Run value stays reachable. Optional (a run that is never closed is
// simply collected), safe to call more than once and on a nil Run, and
// terminal: the Run must not be used afterwards. Results and Outcomes
// already returned stay valid.
func (r *Run) Close() {
	if r != nil {
		r.engine = nil
	}
}

// Service ---------------------------------------------------------------------

// Service is the multi-tenant registry behind the /v1 REST surface:
// corpora (each with its own shared QueryCache) and the verifiers trained
// over them. All methods are safe for concurrent use.
type Service struct {
	// store, when non-nil, journals every accepted mutation before the
	// call acknowledges it (see persist.go). Attached by Recover before
	// the service starts handling traffic; nil keeps the registry
	// ephemeral, the pre-durability behavior.
	store Store

	mu          sync.RWMutex
	corpora     map[string]*serviceCorpus
	verifiers   map[string]*Verifier
	corpusSeq   uint64
	verifierSeq uint64
}

// serviceCorpus is one registered corpus plus the caches shared by every
// verifier and run bound to it.
type serviceCorpus struct {
	id      string
	corpus  *Corpus
	qcache  *QueryCache
	created time.Time
}

// NewService creates an empty registry.
func NewService() *Service {
	return &Service{
		corpora:   make(map[string]*serviceCorpus),
		verifiers: make(map[string]*Verifier),
	}
}

// validID rejects registry identifiers that would not survive a URL path
// segment.
func validID(id string) error {
	if len(id) > 128 {
		return fmt.Errorf("scrutinizer: id longer than 128 bytes")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("scrutinizer: id %q contains %q (allowed: letters, digits, '-', '_', '.')", id, r)
		}
	}
	return nil
}

// AddCorpus registers a corpus under id (empty id mints "c1", "c2", ...)
// and returns the assigned identifier. The corpus gets its own shared
// QueryCache: every verifier created over it deduplicates tentative
// execution with every other. With a store attached, the corpus's
// relations are dumped into the journal record before the registry lock
// is taken (the dump does not depend on the ID), so a large upload never
// stalls other Service calls; without one no record is built at all.
func (s *Service) AddCorpus(id string, c *Corpus) (string, error) {
	if c == nil {
		return "", fmt.Errorf("scrutinizer: nil corpus")
	}
	if err := validID(id); err != nil {
		return "", err
	}
	var rec *store.Record
	if s.store != nil {
		var err error
		if rec, err = corpusCreateRecord(c); err != nil {
			return "", err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		for {
			s.corpusSeq++
			id = fmt.Sprintf("c%d", s.corpusSeq)
			if _, taken := s.corpora[id]; !taken {
				break
			}
		}
	} else if _, dup := s.corpora[id]; dup {
		return "", fmt.Errorf("scrutinizer: corpus %q already registered", id)
	}
	s.corpora[id] = &serviceCorpus{id: id, corpus: c, qcache: NewQueryCache(), created: time.Now()}
	if rec != nil {
		// Appending under s.mu keeps the journal in registry order.
		rec.Corpus = id
		if err := s.journal(rec); err != nil {
			delete(s.corpora, id) // not durable, not acknowledged
			return "", err
		}
	}
	return id, nil
}

// corpusCreateRecord dumps a corpus's relations into its journal record;
// the caller fills in the corpus ID.
func corpusCreateRecord(c *Corpus) (*store.Record, error) {
	var p store.CorpusPayload
	for _, name := range c.Names() {
		rel, err := c.Relation(name)
		if err != nil {
			return nil, err
		}
		rp, err := relationPayload(rel)
		if err != nil {
			return nil, err
		}
		p.Relations = append(p.Relations, rp)
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	return &store.Record{Op: store.OpCorpusCreate, Payload: payload}, nil
}

// Corpus returns a registered corpus.
func (s *Service) Corpus(id string) (*Corpus, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.corpora[id]
	if !ok {
		return nil, false
	}
	return e.corpus, true
}

// ErrNoCorpus reports a relation mutation against an unregistered corpus.
var ErrNoCorpus = errors.New("scrutinizer: no such corpus")

// PutRelation uploads (or replaces) one relation of a registered corpus
// from its CSV form (first column is the key attribute), returning the
// parsed relation and whether an existing relation was replaced. The
// upload is journaled verbatim — the recovered relation is parsed from
// exactly the bytes the caller sent — before it is acknowledged; a failed
// append restores the prior relation and surfaces as ErrJournal. A name or
// body that is not valid UTF-8 is refused: the journal's JSON encoding
// would silently replace the invalid bytes, so recovery would rebuild a
// different relation from the one accepted. Callers are responsible for
// the freeze discipline (no verifier may be bound to the corpus) and for
// serializing mutations of one corpus — the HTTP layer holds a per-corpus
// lock around this.
func (s *Service) PutRelation(corpusID, name string, csv []byte) (*Relation, bool, error) {
	rp := store.RelationPayload{Name: name, CSV: string(csv)}
	if err := checkUTF8(rp); err != nil {
		return nil, false, err
	}
	entry, ok := s.corpusEntry(corpusID)
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrNoCorpus, corpusID)
	}
	rel, err := ReadRelationCSV(name, strings.NewReader(rp.CSV))
	if err != nil {
		return nil, false, err
	}
	var payload []byte
	if s.store != nil {
		if payload, err = json.Marshal(rp); err != nil {
			return nil, false, err
		}
	}
	var prior *Relation
	if entry.corpus.Has(name) {
		prior, _ = entry.corpus.Relation(name)
	}
	entry.corpus.Remove(name)
	if err := entry.corpus.Add(rel); err != nil {
		if prior != nil {
			_ = entry.corpus.Add(prior)
		}
		return nil, false, err
	}
	if err := s.journal(&store.Record{
		Op: store.OpRelationPut, Corpus: corpusID, Relation: name, Payload: payload,
	}); err != nil {
		entry.corpus.Remove(name)
		if prior != nil {
			_ = entry.corpus.Add(prior)
		}
		return nil, false, err
	}
	return rel, prior != nil, nil
}

// DropRelation deletes one relation of a registered corpus, reporting
// whether it existed. Journaled like PutRelation, with the same caller
// obligations.
func (s *Service) DropRelation(corpusID, name string) (bool, error) {
	entry, ok := s.corpusEntry(corpusID)
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrNoCorpus, corpusID)
	}
	if !entry.corpus.Has(name) {
		return false, nil
	}
	prior, _ := entry.corpus.Relation(name)
	entry.corpus.Remove(name)
	if err := s.journal(&store.Record{
		Op: store.OpRelationDelete, Corpus: corpusID, Relation: name,
	}); err != nil {
		if prior != nil {
			_ = entry.corpus.Add(prior)
		}
		return false, err
	}
	return true, nil
}

// CorpusQueryCache returns the shared tentative-execution cache of a
// registered corpus (health reporting).
func (s *Service) CorpusQueryCache(id string) (*QueryCache, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.corpora[id]
	if !ok {
		return nil, false
	}
	return e.qcache, true
}

// RemoveCorpus drops a corpus and every verifier bound to it, reporting
// whether the corpus was registered. Live runs and sessions keep working
// on their own engines; they just can no longer be recreated. With a
// store attached the cascade is journaled before the call returns, so
// recovery never resurrects any of it; a failed journal append rolls the
// removal back and surfaces as ErrJournal.
func (s *Service) RemoveCorpus(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, ok := s.corpora[id]
	if !ok {
		return false, nil
	}
	delete(s.corpora, id)
	var dropped []*Verifier
	for vid, v := range s.verifiers {
		if v.corpusID == id {
			delete(s.verifiers, vid)
			dropped = append(dropped, v)
		}
	}
	if err := s.journal(&store.Record{Op: store.OpCorpusDelete, Corpus: id}); err != nil {
		// Not durable: reinstate so the registry matches the journal.
		s.corpora[id] = entry
		for _, v := range dropped {
			s.verifiers[v.id] = v
		}
		return false, err
	}
	return true, nil
}

// CreateVerifier trains a verifier over a registered corpus (see
// NewVerifier) and registers it under a minted "v1", "v2", ... id. The
// verifier shares the corpus's QueryCache unless opts.QueryCache overrides
// it.
func (s *Service) CreateVerifier(corpusID string, training *Document, opts Options) (*Verifier, error) {
	s.mu.RLock()
	entry, ok := s.corpora[corpusID]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("scrutinizer: no corpus %q", corpusID)
	}
	if opts.QueryCache == nil {
		opts.QueryCache = entry.qcache
	}
	v, err := NewVerifier(entry.corpus, training, opts)
	if err != nil {
		return nil, err
	}
	// The journal record carries the training document and options:
	// recovery deterministically retrains the verifier from exactly these.
	trainingJSON, err := encodeDocument(training)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(verifierPayload{
		Training: trainingJSON,
		Options: optionsPayload{
			Cost: opts.Cost, Tolerance: opts.Tolerance, TopK: opts.TopK,
			EmbeddingDim: opts.EmbeddingDim, Seed: opts.Seed,
		},
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	// The corpus may have been removed — or removed and re-created under
	// the same ID — while training ran; registering against anything but
	// the exact entry the verifier was trained on would either leak it
	// past RemoveCorpus's cascade or freeze an unrelated corpus.
	if cur, still := s.corpora[corpusID]; !still || cur != entry {
		s.mu.Unlock()
		return nil, fmt.Errorf("scrutinizer: corpus %q was removed during training", corpusID)
	}
	s.verifierSeq++
	v.id = fmt.Sprintf("v%d", s.verifierSeq)
	v.corpusID = corpusID
	v.svc = s
	s.verifiers[v.id] = v
	if err := s.journal(&store.Record{
		Op: store.OpVerifierCreate, Verifier: v.id, Corpus: corpusID, Payload: payload,
	}); err != nil {
		delete(s.verifiers, v.id) // not durable, not acknowledged
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Unlock()
	return v, nil
}

// Verifier returns a registered verifier.
func (s *Service) Verifier(id string) (*Verifier, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.verifiers[id]
	return v, ok
}

// RemoveVerifier drops a verifier, reporting whether it was registered.
// With a store attached the delete is journaled (rolled back on append
// failure, surfaced as ErrJournal), so recovery does not resurrect it.
func (s *Service) RemoveVerifier(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.verifiers[id]
	if !ok {
		return false, nil
	}
	delete(s.verifiers, id)
	if err := s.journal(&store.Record{Op: store.OpVerifierDelete, Verifier: id, Corpus: v.corpusID}); err != nil {
		s.verifiers[id] = v
		return false, err
	}
	return true, nil
}

// CorpusInfo summarises one registered corpus.
type CorpusInfo struct {
	ID        string          `json:"id"`
	Relations int             `json:"relations"`
	Rows      int             `json:"rows"`
	Cells     int             `json:"cells"`
	Verifiers int             `json:"verifiers"`
	Created   time.Time       `json:"created"`
	Cache     QueryCacheStats `json:"query_cache"`
}

// VerifierInfo summarises one registered verifier.
type VerifierInfo struct {
	ID         string    `json:"id"`
	CorpusID   string    `json:"corpus"`
	TrainedOn  int       `json:"trained_on"`
	Generation uint64    `json:"model_generation"`
	Runs       uint64    `json:"runs_started"`
	FeatureDim int       `json:"feature_dim"`
	Created    time.Time `json:"created"`
}

// Info summarises a verifier for listings and GET endpoints.
func (v *Verifier) Info() VerifierInfo {
	return VerifierInfo{
		ID:         v.id,
		CorpusID:   v.corpusID,
		TrainedOn:  v.TrainedOn(),
		Generation: v.Generation(),
		Runs:       v.Runs(),
		FeatureDim: v.FeatureDim(),
		Created:    v.created,
	}
}

// corpusInfoLocked summarises one entry; caller holds s.mu (read).
func (s *Service) corpusInfoLocked(e *serviceCorpus) CorpusInfo {
	st := e.corpus.Stats()
	info := CorpusInfo{
		ID:        e.id,
		Relations: st.Relations,
		Rows:      st.Rows,
		Cells:     st.Cells,
		Created:   e.created,
		Cache:     e.qcache.Stats(),
	}
	for _, v := range s.verifiers {
		if v.corpusID == e.id {
			info.Verifiers++
		}
	}
	return info
}

// CorpusInfo summarises one registered corpus by ID.
func (s *Service) CorpusInfo(id string) (CorpusInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.corpora[id]
	if !ok {
		return CorpusInfo{}, false
	}
	return s.corpusInfoLocked(e), true
}

// Corpora lists registered corpora sorted by ID.
func (s *Service) Corpora() []CorpusInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]CorpusInfo, 0, len(s.corpora))
	for _, e := range s.corpora {
		out = append(out, s.corpusInfoLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Verifiers lists registered verifiers sorted by ID.
func (s *Service) Verifiers() []VerifierInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]VerifierInfo, 0, len(s.verifiers))
	for _, v := range s.verifiers {
		out = append(out, v.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ServiceStats aggregates the registry for health reporting.
type ServiceStats struct {
	Corpora   int    `json:"corpora"`
	Verifiers int    `json:"verifiers"`
	Runs      uint64 `json:"runs_started"`
}

// Stats counts the registry's tenants and the runs they have started.
func (s *Service) Stats() ServiceStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := ServiceStats{Corpora: len(s.corpora), Verifiers: len(s.verifiers)}
	for _, v := range s.verifiers {
		st.Runs += v.Runs()
	}
	return st
}
