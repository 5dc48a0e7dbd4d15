package scrutinizer

// This file is the durability layer behind Service: a pluggable Store
// (write-ahead journal, package internal/store) attached to the registry so
// every accepted /v1 mutation is journaled before it is acknowledged, and a
// Recover pass that replays the journal on boot to rebuild exactly the
// acknowledged state:
//
//   - corpora are reconstructed from their journaled relation CSV: the
//     WriteCSV dump taken at registration (it round-trips cells and NULLs
//     exactly; metadata rides in the payload), then each later upload's
//     request body, journaled verbatim,
//   - verifiers are deterministically retrained from the journaled training
//     document and options — the classifiers are a pure function of those,
//     so no model state is stored beside the journal,
//   - interactive sessions are re-parked by replaying their journaled
//     answer logs against fresh spawns (verification is deterministic in
//     (engine, document, answers)).
//
// A Service without an attached store behaves exactly as before, and the
// mutation paths build no journal record at all when it is nil.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/session"
	"github.com/repro/scrutinizer/internal/store"
)

// Store is the pluggable persistence backend (see internal/store): an
// append-only journal of accepted mutations.
type Store = store.Store

// StoreStats is a point-in-time store summary (served by /healthz).
type StoreStats = store.Stats

// ErrJournal marks a mutation that was rolled back because its journal
// append failed — the store is unavailable or out of space. HTTP layers
// should map it to 503: the request may succeed once the store recovers.
var ErrJournal = errors.New("scrutinizer: journal write failed")

// NewMemoryStore returns an in-memory store: full journal semantics, no
// durability. The default when no data directory is configured, and the
// workhorse of recovery tests.
func NewMemoryStore() *store.Memory { return store.NewMemoryStore() }

// OpenFileStore opens (creating as needed) the embedded single-node store
// rooted at dir, truncating any torn journal tail left by a crash.
func OpenFileStore(dir string) (*store.File, error) { return store.OpenFileStore(dir) }

// NewFaultyStore wraps a store so the first failAfter journal appends
// succeed and every write after that fails with store.ErrInjected — the
// crash lever of the recovery test harness. With torn set, the failing
// append leaves a truncated frame in the underlying journal, the on-disk
// shape of a process dying mid-write.
func NewFaultyStore(inner Store, failAfter int, torn bool) *store.Faulty {
	return store.NewFaulty(inner, failAfter, torn)
}

// StoreFaultPlan re-exports the chaos-harness fault configuration: write
// budgets and torn tails as above, plus read-side failures and injected
// per-operation latency (how tests hold a recovering daemon in the
// not-ready state long enough to probe it).
type StoreFaultPlan = store.FaultPlan

// NewFaultyStorePlan wraps a store with the full fault plan.
func NewFaultyStorePlan(inner Store, plan StoreFaultPlan) *store.Faulty {
	return store.NewFaultyPlan(inner, plan)
}

// verifierPayload is the OpVerifierCreate journal body: everything needed
// to deterministically rebuild the verifier by retraining.
type verifierPayload struct {
	// Training is the training document, in the claims JSON archive form.
	Training json.RawMessage `json:"training"`
	Options  optionsPayload  `json:"options"`
}

// optionsPayload is Options minus the non-serializable QueryCache (recovery
// reattaches the corpus's shared cache, as CreateVerifier does).
type optionsPayload struct {
	Cost         CostModel `json:"cost,omitempty"`
	Tolerance    float64   `json:"tolerance,omitempty"`
	TopK         int       `json:"topk,omitempty"`
	EmbeddingDim int       `json:"embedding_dim,omitempty"`
	Seed         int64     `json:"seed,omitempty"`
}

func (p optionsPayload) options() Options {
	return Options{Cost: p.Cost, Tolerance: p.Tolerance, TopK: p.TopK, EmbeddingDim: p.EmbeddingDim, Seed: p.Seed}
}

// sessionPayload is the OpSessionCreate journal body: the parked document
// plus the run options, so answer-log replay re-parks an identical session.
type sessionPayload struct {
	Doc      json.RawMessage      `json:"doc"`
	Verify   verifyOptionsPayload `json:"verify"`
	Checkers int                  `json:"checkers,omitempty"`
}

type verifyOptionsPayload struct {
	BatchSize       int     `json:"batch_size,omitempty"`
	SectionReadCost float64 `json:"section_read_cost,omitempty"`
	Ordering        int     `json:"ordering,omitempty"`
	Parallelism     int     `json:"parallelism,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
}

func (p sessionPayload) sessionOptions() SessionOptions {
	return SessionOptions{
		Verify: VerifyOptions{
			BatchSize:       p.Verify.BatchSize,
			SectionReadCost: p.Verify.SectionReadCost,
			Ordering:        core.Ordering(p.Verify.Ordering),
			Parallelism:     p.Verify.Parallelism,
			Seed:            p.Verify.Seed,
		},
		Checkers: p.Checkers,
	}
}

// encodeDocument serialises a document in the claims JSON archive form.
func encodeDocument(doc *Document) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeDocument(raw json.RawMessage) (*Document, error) {
	return ReadDocumentJSON(bytes.NewReader(raw))
}

// ErrNotUTF8 marks a relation whose name, CSV or metadata is not valid
// UTF-8. Journal payloads are JSON, whose strings cannot carry invalid
// bytes (encoding replaces them with U+FFFD), so such a relation is
// refused instead of being journaled as a different one.
var ErrNotUTF8 = errors.New("scrutinizer: not valid UTF-8")

// checkUTF8 refuses a relation payload the journal could not carry.
func checkUTF8(p store.RelationPayload) error {
	ok := utf8.ValidString(p.Name) && utf8.ValidString(p.CSV)
	for k, v := range p.Meta {
		ok = ok && utf8.ValidString(k) && utf8.ValidString(v)
	}
	if !ok {
		return fmt.Errorf("%w: relation %q", ErrNotUTF8, p.Name)
	}
	return nil
}

// ErrCRLF marks a relation whose key attribute, attribute names or row
// keys hold "\r\n". A corpus is journaled as its WriteCSV dump, and a CSV
// reader reads a quoted "\r\n" back as "\n", so such a relation is refused
// instead of being recovered as a different one.
var ErrCRLF = errors.New(`scrutinizer: key or attribute name holds "\r\n"`)

// checkCRLF refuses a relation its WriteCSV dump could not carry.
func checkCRLF(rel *Relation) error {
	crlf := func(s string) bool { return strings.Contains(s, "\r\n") }
	if crlf(rel.KeyAttr()) || slices.ContainsFunc(rel.Attrs(), crlf) || slices.ContainsFunc(rel.Keys(), crlf) {
		return fmt.Errorf("%w: relation %q", ErrCRLF, rel.Name())
	}
	return nil
}

// relationPayload dumps one relation as its journal form.
func relationPayload(rel *Relation) (store.RelationPayload, error) {
	if err := checkCRLF(rel); err != nil {
		return store.RelationPayload{}, err
	}
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		return store.RelationPayload{}, err
	}
	p := store.RelationPayload{Name: rel.Name(), CSV: buf.String(), Meta: rel.Metadata()}
	return p, checkUTF8(p)
}

func decodeRelation(p store.RelationPayload) (*Relation, error) {
	rel, err := ReadRelationCSV(p.Name, strings.NewReader(p.CSV))
	if err != nil {
		return nil, err
	}
	for k, v := range p.Meta {
		rel.SetMeta(k, v)
	}
	return rel, nil
}

// journal appends one record when a store is attached, wrapping failures in
// ErrJournal. A nil store (no -data-dir, pre-PR-6 behavior) is a no-op.
func (s *Service) journal(rec *store.Record) error {
	st := s.store
	if st == nil {
		return nil
	}
	if err := st.Append(rec); err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	return nil
}

// StoreStats reports the attached store's summary; ok is false when the
// service runs without one.
func (s *Service) StoreStats() (StoreStats, bool) {
	if s.store == nil {
		return StoreStats{}, false
	}
	return s.store.Stats(), true
}

// journalSessionCreate records a newly parked verifier-owned session.
func (s *Service) journalSessionCreate(verifierID, sessionID string, doc *Document, opts SessionOptions) error {
	docJSON, err := encodeDocument(doc)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(sessionPayload{
		Doc: docJSON,
		Verify: verifyOptionsPayload{
			BatchSize:       opts.Verify.BatchSize,
			SectionReadCost: opts.Verify.SectionReadCost,
			Ordering:        int(opts.Verify.Ordering),
			Parallelism:     opts.Verify.Parallelism,
			Seed:            opts.Verify.Seed,
		},
		Checkers: opts.Checkers,
	})
	if err != nil {
		return err
	}
	return s.journal(&store.Record{
		Op: store.OpSessionCreate, Session: sessionID, Verifier: verifierID, Payload: payload,
	})
}

// RecoveryStats summarises one Recover pass (served by /healthz).
type RecoveryStats struct {
	// Records is the number of journal records replayed.
	Records uint64 `json:"journal_records"`
	// Corpora and Verifiers count the recovered registry.
	Corpora   int `json:"corpora"`
	Verifiers int `json:"verifiers"`
	// Sessions were re-parked by answer-log replay; SessionsSkipped
	// referenced resources deleted later in the journal or failed replay.
	Sessions        int `json:"sessions_restored"`
	SessionsSkipped int `json:"sessions_skipped"`
	// The phases of the pass, in seconds and in the order they end. Each
	// starts where the previous one ended, so together they are the
	// pass's wall time up to attaching the store.
	//
	// ReplayS folds the journal into the surviving resource set.
	// CorporaS parses and registers the corpora; the verifiers retrain
	// beside it from its start. VerifiersS is the retraining the corpus
	// rebuild did not hide, plus binding the verifiers. SessionsS
	// re-parks the sessions.
	ReplayS    float64 `json:"replay_s"`
	CorporaS   float64 `json:"corpora_s"`
	VerifiersS float64 `json:"verifiers_s"`
	SessionsS  float64 `json:"sessions_s"`
}

// recVerifier is one verifier.create during replay. Its payload stays
// raw: only a verifier that survives the replay has it decoded.
type recVerifier struct {
	id       string
	corpusID string
	payload  []byte
}

// recSession is one session.create during replay, with its accumulated
// answer log. The payload and answers stay raw until the session is
// re-parked.
type recSession struct {
	id       string
	verifier string
	payload  []byte
	answers  [][]byte
}

// replayError wraps a malformed journal record as the replay reports it.
func replayError(err error) error {
	return fmt.Errorf("scrutinizer: replaying journal: %w", err)
}

// decode parses a re-parked session's journaled payload and answer log.
func (rs *recSession) decode() (sessionPayload, *SessionSnapshot, error) {
	var p sessionPayload
	if err := json.Unmarshal(rs.payload, &p); err != nil {
		return p, nil, replayError(fmt.Errorf("session %q payload: %w", rs.id, err))
	}
	snap := &SessionSnapshot{ID: rs.id, Answers: make([]session.Answer, len(rs.answers))}
	for i, raw := range rs.answers {
		if err := json.Unmarshal(raw, &snap.Answers[i]); err != nil {
			return p, nil, replayError(fmt.Errorf("session %q answer: %w", rs.id, err))
		}
	}
	return p, snap, nil
}

// Recover rebuilds the service from st's journal and attaches st, so
// subsequent mutations are journaled; when mgr is non-nil, journaled live
// sessions are re-parked into it and its hooks are installed so session
// activity journals too. The service must be empty and not yet serving —
// Recover is a boot-time call, not a live failover. It is safe to call on a
// fresh store: the replay is empty and the service just comes up attached.
func (s *Service) Recover(st Store, mgr *SessionManager) (RecoveryStats, error) {
	if st == nil {
		return RecoveryStats{}, fmt.Errorf("scrutinizer: nil store")
	}
	var stats RecoveryStats
	mark := time.Now()
	// phase times the span since the previous phase boundary.
	phase := func(d *float64) {
		now := time.Now()
		*d = now.Sub(mark).Seconds()
		mark = now
	}

	// Pass 1: fold the journal's record headers into the surviving
	// resource set. No payload is decoded yet, so nothing of a resource
	// deleted later in the journal is ever decoded or built. Each surviving
	// corpus keeps its create record and the relation puts and deletes that
	// followed, in journal order.
	corpora := make(map[string][]*store.Record)
	var corpusOrder []string
	verifiers := make(map[string]*recVerifier)
	var verifierOrder []string
	sessions := make(map[string]*recSession)
	var sessionOrder []string
	var corpusSeq, verifierSeq uint64

	err := st.Replay(func(rec *store.Record) error {
		stats.Records++
		switch rec.Op {
		case store.OpCorpusCreate:
			if _, dup := corpora[rec.Corpus]; dup {
				return fmt.Errorf("corpus %q created twice", rec.Corpus)
			}
			corpora[rec.Corpus] = []*store.Record{rec}
			corpusOrder = append(corpusOrder, rec.Corpus)
			bumpSeq(&corpusSeq, rec.Corpus, 'c')

		case store.OpCorpusDelete:
			delete(corpora, rec.Corpus)
			// The live RemoveCorpus cascades over the corpus's verifiers;
			// replay mirrors it.
			for id, v := range verifiers {
				if v.corpusID == rec.Corpus {
					delete(verifiers, id)
				}
			}

		case store.OpRelationPut:
			recs, ok := corpora[rec.Corpus]
			if !ok {
				return fmt.Errorf("relation put on unknown corpus %q", rec.Corpus)
			}
			corpora[rec.Corpus] = append(recs, rec)

		case store.OpRelationDelete:
			if recs, ok := corpora[rec.Corpus]; ok {
				corpora[rec.Corpus] = append(recs, rec)
			}

		case store.OpVerifierCreate:
			if _, ok := corpora[rec.Corpus]; !ok {
				return fmt.Errorf("verifier %q on unknown corpus %q", rec.Verifier, rec.Corpus)
			}
			verifiers[rec.Verifier] = &recVerifier{id: rec.Verifier, corpusID: rec.Corpus, payload: rec.Payload}
			verifierOrder = append(verifierOrder, rec.Verifier)
			bumpSeq(&verifierSeq, rec.Verifier, 'v')

		case store.OpVerifierDelete:
			delete(verifiers, rec.Verifier)

		case store.OpSessionCreate:
			sessions[rec.Session] = &recSession{id: rec.Session, verifier: rec.Verifier, payload: rec.Payload}
			sessionOrder = append(sessionOrder, rec.Session)

		case store.OpSessionAnswer:
			sess, ok := sessions[rec.Session]
			if !ok {
				// The session was already deleted (answers race the
				// delete only across sessions, never within one) or its
				// create never committed; either way nothing to apply.
				return nil
			}
			sess.answers = append(sess.answers, rec.Payload)

		case store.OpSessionDelete:
			// Explicit delete or TTL eviction: the session must not be
			// resurrected. Unknown IDs are tolerated (a create whose
			// journal append failed after the registry accepted it was
			// rolled back, but its delete may still have committed).
			delete(sessions, rec.Session)

		default:
			return fmt.Errorf("unknown journal op %q", rec.Op)
		}
		return nil
	})
	if err != nil {
		return stats, replayError(err)
	}
	phase(&stats.ReplayS)

	// Pass 2: rebuild the surviving corpora while the verifiers retrain.
	// Retraining decodes a verifier's journaled payload and reads its
	// training document and options, never its corpus (feature.Fit and
	// Engine.Train do not), so it runs on its own goroutine from here; each
	// corpus is filled in on this one, into the Corpus its verifiers will
	// be bound to, and a verifier is bound — given its ID and registered —
	// only once every corpus is built. So a corpus error is reported ahead
	// of any verifier's, be it a malformed payload or a failed retrain.
	// State is mutated directly: the store is not attached yet, so nothing
	// re-journals. Deleting each corpus's records once taken frees their
	// raw CSV early, and skips the second entry of an ID deleted and
	// created again (only its last incarnation survived).
	entries := make(map[string]*serviceCorpus, len(corpora))
	for id := range corpora {
		entries[id] = &serviceCorpus{id: id, corpus: NewCorpus(), qcache: NewQueryCache(), created: time.Now()}
	}
	var live []*recVerifier
	for _, id := range verifierOrder {
		if rv, ok := verifiers[id]; ok {
			delete(verifiers, id)
			live = append(live, rv)
		}
	}
	retrained := retrainVerifiers(live, entries)
	// On every path out, no retraining outlives Recover.
	defer retrained.stop()

	for _, id := range corpusOrder {
		recs, ok := corpora[id]
		if !ok {
			continue
		}
		delete(corpora, id)
		if err := buildCorpus(entries[id].corpus, id, recs); err != nil {
			return stats, fmt.Errorf("scrutinizer: rebuilding corpus: %w", err)
		}
	}
	s.mu.Lock()
	if len(s.corpora) != 0 || len(s.verifiers) != 0 {
		s.mu.Unlock()
		return stats, fmt.Errorf("scrutinizer: Recover requires an empty service")
	}
	for id, e := range entries {
		s.corpora[id] = e
	}
	stats.Corpora = len(entries)
	if corpusSeq > s.corpusSeq {
		s.corpusSeq = corpusSeq
	}
	if verifierSeq > s.verifierSeq {
		s.verifierSeq = verifierSeq
	}
	s.mu.Unlock()
	phase(&stats.CorporaS)

	vs, err := retrained.wait()
	if err != nil {
		return stats, err
	}
	s.mu.Lock()
	for i, v := range vs {
		v.id, v.corpusID, v.svc = live[i].id, live[i].corpusID, s
		s.verifiers[v.id] = v
	}
	s.mu.Unlock()
	stats.Verifiers = len(vs)
	phase(&stats.VerifiersS)

	// Re-park sessions by answer-log replay. Hooks are not installed yet,
	// so replay does not re-journal (and Session.Answer additionally
	// suppresses the answer hook during Restore).
	if mgr != nil {
		for _, id := range sessionOrder {
			rs, ok := sessions[id]
			if !ok {
				continue
			}
			v, live := s.Verifier(rs.verifier)
			if !live {
				stats.SessionsSkipped++
				continue
			}
			p, snap, err := rs.decode()
			if err != nil {
				return stats, err
			}
			doc, err := decodeDocument(p.Doc)
			if err != nil {
				return stats, fmt.Errorf("scrutinizer: session %q document: %w", id, err)
			}
			// Recovery replay runs detached: boot must re-park every
			// journaled session or count it skipped, never half-replay.
			if _, err := v.RestoreSession(context.Background(), mgr, doc, p.sessionOptions(), snap); err != nil {
				// A full registry or a replay mismatch loses the session
				// but not the boot; count it and keep going.
				stats.SessionsSkipped++
				continue
			}
			stats.Sessions++
		}
	}
	phase(&stats.SessionsS)

	// Attach: from here every accepted mutation journals.
	s.store = st
	if mgr != nil {
		mgr.SetHooks(session.Hooks{
			OnAnswer: func(sess *Session, a session.Answer) {
				if sess.Owner() == "" {
					return // standalone-verifier session, not journaled
				}
				payload, err := json.Marshal(a)
				if err != nil {
					return
				}
				// The hook runs under the session lock, so journal order
				// matches apply order. A failed append loses at most this
				// answer's durability; the client was not yet acknowledged.
				_ = s.journal(&store.Record{
					Op: store.OpSessionAnswer, Session: sess.ID(),
					Verifier: sess.Owner(), Payload: payload,
				})
			},
			OnEnd: func(id, owner string, evicted bool) {
				if owner == "" {
					return
				}
				_ = s.journal(&store.Record{Op: store.OpSessionDelete, Session: id, Verifier: owner})
			},
		})
	}
	return stats, nil
}

// buildCorpus applies one surviving corpus's journaled records — its create
// dump, then relation puts and deletes — to the empty corpus c in journal
// order, which keeps relation order (and so the corpus's interned index)
// as it was live.
// Parsing the relations is nearly all of the work and each one stands
// alone, so parseSteps does it first, in parallel; the apply loop is then
// sequential and reports the error the one-pass rebuild would have met
// first.
func buildCorpus(c *Corpus, id string, records []*store.Record) error {
	var steps []relationStep
	for _, rec := range records {
		if rec.Op != store.OpCorpusCreate {
			steps = append(steps, relationStep{rec: rec})
			continue
		}
		var p store.CorpusPayload
		if len(rec.Payload) > 0 {
			var err error
			if p, err = store.DecodeCorpusPayload(rec.Payload); err != nil {
				return fmt.Errorf("corpus %q payload: %w", id, err)
			}
		}
		for _, rp := range p.Relations {
			steps = append(steps, relationStep{dump: rp})
		}
	}
	parseSteps(id, steps)

	for i := range steps {
		st := &steps[i]
		if st.err != nil {
			return st.err
		}
		switch {
		case st.rec == nil:
			if err := c.Add(st.rel); err != nil {
				return fmt.Errorf("corpus %q: %w", id, err)
			}
		case st.rec.Op == store.OpRelationPut:
			c.Remove(st.rel.Name())
			if err := c.Add(st.rel); err != nil {
				return fmt.Errorf("relation %q: %w", st.rec.Relation, err)
			}
		case st.rec.Op == store.OpRelationDelete:
			c.Remove(st.rec.Relation)
		}
	}
	return nil
}

// relationStep is one step of a corpus rebuild: a relation of the create
// dump, or a later put or delete record.
type relationStep struct {
	rec  *store.Record         // the put or delete; nil for a dump entry
	dump store.RelationPayload // a dump entry's relation
	// rel is the parsed relation of a dump entry or put; err is its
	// parse failure, wrapped as the apply loop reports it.
	rel *Relation
	err error
}

// parse decodes the step's relation; a delete has none.
func (st *relationStep) parse(corpusID string) {
	if st.rec == nil {
		st.rel, st.err = decodeRelation(st.dump)
		if st.err != nil {
			st.err = fmt.Errorf("corpus %q relation %q: %w", corpusID, st.dump.Name, st.err)
		}
		return
	}
	if st.rec.Op != store.OpRelationPut {
		return
	}
	rp, err := store.DecodeRelationPayload(st.rec.Payload)
	if err != nil {
		st.err = fmt.Errorf("relation %q payload: %w", st.rec.Relation, err)
		return
	}
	rel, err := decodeRelation(rp)
	if err != nil {
		st.err = fmt.Errorf("relation %q: %w", st.rec.Relation, err)
		return
	}
	st.rel = rel
}

// parseSteps parses the steps' relations on up to GOMAXPROCS goroutines.
// Workers take steps in journal order and take no more after the first
// failure. Every step before a failed one was taken already, so the apply
// loop meets the same first error as a sequential parse, and never reaches
// a step left unparsed.
func parseSteps(corpusID string, steps []relationStep) {
	workers := min(runtime.GOMAXPROCS(0), len(steps))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(steps) {
					return
				}
				if steps[i].parse(corpusID); steps[i].err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
}

// retraining is the verifier half of a recovery, running beside the
// corpus rebuild.
type retraining struct {
	done    chan struct{}
	aborted atomic.Bool
	vs      []*Verifier
	err     error
}

// retrainVerifiers retrains the verifiers, in journal order, on one
// goroutine: each deterministically from its journaled training document
// and options, against its corpus's entry and shared QueryCache — exactly
// what CreateVerifier built. The corpora may still be filling in; nothing
// here reads them. It stops at the first failure.
func retrainVerifiers(rvs []*recVerifier, entries map[string]*serviceCorpus) *retraining {
	r := &retraining{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for _, rv := range rvs {
			if r.aborted.Load() {
				return
			}
			var p verifierPayload
			if err := json.Unmarshal(rv.payload, &p); err != nil {
				r.err = replayError(fmt.Errorf("verifier %q payload: %w", rv.id, err))
				return
			}
			v, err := rebuildVerifier(rv.corpusID, p, entries[rv.corpusID])
			if err != nil {
				r.err = fmt.Errorf("scrutinizer: rebuilding verifier %q: %w", rv.id, err)
				return
			}
			r.vs = append(r.vs, v)
		}
	}()
	return r
}

// wait returns the retrained verifiers, in journal order, or the first
// failure.
func (r *retraining) wait() ([]*Verifier, error) {
	<-r.done
	return r.vs, r.err
}

// stop abandons the verifiers not yet started and waits for the one in
// training, if any.
func (r *retraining) stop() {
	r.aborted.Store(true)
	<-r.done
}

// rebuildVerifier re-materializes one verifier from its decoded payload by
// retraining it over entry's corpus and QueryCache. The verifier is not
// yet bound to the registry: the caller sets its IDs and service.
func rebuildVerifier(corpusID string, p verifierPayload, entry *serviceCorpus) (*Verifier, error) {
	if entry == nil {
		return nil, fmt.Errorf("corpus %q is gone", corpusID)
	}
	training, err := decodeDocument(p.Training)
	if err != nil {
		return nil, fmt.Errorf("training document: %w", err)
	}
	opts := p.Options.options()
	opts.QueryCache = entry.qcache
	return NewVerifier(entry.corpus, training, opts)
}

// corpusEntry resolves a registered corpus entry.
func (s *Service) corpusEntry(id string) (*serviceCorpus, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.corpora[id]
	return e, ok
}

// bumpSeq advances a mint counter past a recovered "c7"/"v12"-style ID so
// post-recovery minting never collides with recovered resources.
func bumpSeq(seq *uint64, id string, prefix byte) {
	if len(id) < 2 || id[0] != prefix {
		return
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err == nil && n > *seq {
		*seq = n
	}
}
