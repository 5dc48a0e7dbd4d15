package scrutinizer

// This file is the durability layer behind Service: a pluggable Store
// (write-ahead journal, package internal/store) attached to the registry so
// every accepted /v1 mutation is journaled before it is acknowledged, and a
// Recover pass that replays the journal on boot to rebuild exactly the
// acknowledged state:
//
//   - corpora are reconstructed from their journaled relation CSV dumps
//     (WriteCSV round-trips cells and NULLs exactly; metadata rides in the
//     payload),
//   - verifiers are deterministically retrained from the journaled training
//     document and options — the classifiers are a pure function of those,
//     so no model state is stored beside the journal,
//   - interactive sessions are re-parked by replaying their journaled
//     answer logs against fresh spawns (verification is deterministic in
//     (engine, document, answers)).
//
// A Service without an attached store behaves exactly as before — nothing
// on the mutation paths touches the store when it is nil.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

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

// relationPayload dumps one relation as its journal form.
func relationPayload(rel *Relation) (store.RelationPayload, error) {
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		return store.RelationPayload{}, err
	}
	return store.RelationPayload{Name: rel.Name(), CSV: buf.String(), Meta: rel.Metadata()}, nil
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
}

// recVerifier is one surviving verifier.create during replay.
type recVerifier struct {
	id       string
	corpusID string
	payload  verifierPayload
}

// recSession is one surviving session.create during replay, with its
// accumulated answer log.
type recSession struct {
	id       string
	verifier string
	payload  sessionPayload
	answers  []session.Answer
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

	// Pass 1: fold the journal into the surviving resource set. Nothing is
	// materialized yet, so a resource deleted later in the journal is never
	// built at all. Each surviving corpus keeps its create record and the
	// relation puts and deletes that followed, in journal order.
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
			var p verifierPayload
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return fmt.Errorf("verifier %q payload: %w", rec.Verifier, err)
			}
			if _, ok := corpora[rec.Corpus]; !ok {
				return fmt.Errorf("verifier %q on unknown corpus %q", rec.Verifier, rec.Corpus)
			}
			verifiers[rec.Verifier] = &recVerifier{id: rec.Verifier, corpusID: rec.Corpus, payload: p}
			verifierOrder = append(verifierOrder, rec.Verifier)
			bumpSeq(&verifierSeq, rec.Verifier, 'v')

		case store.OpVerifierDelete:
			delete(verifiers, rec.Verifier)

		case store.OpSessionCreate:
			var p sessionPayload
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return fmt.Errorf("session %q payload: %w", rec.Session, err)
			}
			sessions[rec.Session] = &recSession{id: rec.Session, verifier: rec.Verifier, payload: p}
			sessionOrder = append(sessionOrder, rec.Session)

		case store.OpSessionAnswer:
			sess, ok := sessions[rec.Session]
			if !ok {
				// The session was already deleted (answers race the
				// delete only across sessions, never within one) or its
				// create never committed; either way nothing to apply.
				return nil
			}
			var a session.Answer
			if err := json.Unmarshal(rec.Payload, &a); err != nil {
				return fmt.Errorf("session %q answer: %w", rec.Session, err)
			}
			sess.answers = append(sess.answers, a)

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
		return stats, fmt.Errorf("scrutinizer: replaying journal: %w", err)
	}

	// Pass 2: materialize the surviving corpora, then register them,
	// mutating state directly — the store is not attached yet, so nothing
	// re-journals. Deleting each corpus's records once taken frees their
	// raw CSV before verifier retraining, and skips the second entry of an
	// ID deleted and created again (only its last incarnation survived).
	built := make(map[string]*Corpus, len(corpora))
	for _, id := range corpusOrder {
		recs, ok := corpora[id]
		if !ok {
			continue
		}
		delete(corpora, id)
		c, err := buildCorpus(id, recs)
		if err != nil {
			return stats, fmt.Errorf("scrutinizer: rebuilding corpus: %w", err)
		}
		built[id] = c
	}
	s.mu.Lock()
	if len(s.corpora) != 0 || len(s.verifiers) != 0 {
		s.mu.Unlock()
		return stats, fmt.Errorf("scrutinizer: Recover requires an empty service")
	}
	for id, c := range built {
		s.corpora[id] = &serviceCorpus{id: id, corpus: c, qcache: NewQueryCache(), created: time.Now()}
	}
	stats.Corpora = len(built)
	if corpusSeq > s.corpusSeq {
		s.corpusSeq = corpusSeq
	}
	if verifierSeq > s.verifierSeq {
		s.verifierSeq = verifierSeq
	}
	s.mu.Unlock()

	for _, id := range verifierOrder {
		rv, ok := verifiers[id]
		if !ok {
			continue
		}
		v, err := s.rebuildVerifier(rv)
		if err != nil {
			return stats, fmt.Errorf("scrutinizer: rebuilding verifier %q: %w", id, err)
		}
		s.mu.Lock()
		s.verifiers[id] = v
		s.mu.Unlock()
		stats.Verifiers++
	}

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
			doc, err := decodeDocument(rs.payload.Doc)
			if err != nil {
				return stats, fmt.Errorf("scrutinizer: session %q document: %w", id, err)
			}
			snap := &SessionSnapshot{ID: rs.id, Answers: rs.answers}
			// Recovery replay runs detached: boot must re-park every
			// journaled session or count it skipped, never half-replay.
			if _, err := v.RestoreSession(context.Background(), mgr, doc, rs.payload.sessionOptions(), snap); err != nil {
				// A full registry or a replay mismatch loses the session
				// but not the boot; count it and keep going.
				stats.SessionsSkipped++
				continue
			}
			stats.Sessions++
		}
	}

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
// dump, then relation puts and deletes — in journal order, which keeps
// relation order (and so the corpus's interned index) as it was live.
func buildCorpus(id string, records []*store.Record) (*Corpus, error) {
	c := NewCorpus()
	for _, rec := range records {
		switch rec.Op {
		case store.OpCorpusCreate:
			var p store.CorpusPayload
			if len(rec.Payload) > 0 {
				if err := json.Unmarshal(rec.Payload, &p); err != nil {
					return nil, fmt.Errorf("corpus %q payload: %w", id, err)
				}
			}
			for _, rp := range p.Relations {
				rel, err := decodeRelation(rp)
				if err != nil {
					return nil, fmt.Errorf("corpus %q relation %q: %w", id, rp.Name, err)
				}
				if err := c.Add(rel); err != nil {
					return nil, fmt.Errorf("corpus %q: %w", id, err)
				}
			}

		case store.OpRelationPut:
			var rp store.RelationPayload
			if err := json.Unmarshal(rec.Payload, &rp); err != nil {
				return nil, fmt.Errorf("relation %q payload: %w", rec.Relation, err)
			}
			rel, err := decodeRelation(rp)
			if err != nil {
				return nil, fmt.Errorf("relation %q: %w", rec.Relation, err)
			}
			c.Remove(rel.Name())
			if err := c.Add(rel); err != nil {
				return nil, fmt.Errorf("relation %q: %w", rec.Relation, err)
			}

		case store.OpRelationDelete:
			c.Remove(rec.Relation)
		}
	}
	return c, nil
}

// rebuildVerifier re-materializes one verifier by deterministic retraining
// from its journaled training document and options, over the recovered
// corpus and its shared QueryCache — exactly what CreateVerifier built.
func (s *Service) rebuildVerifier(rv *recVerifier) (*Verifier, error) {
	entry, ok := s.corpusEntry(rv.corpusID)
	if !ok {
		return nil, fmt.Errorf("corpus %q is gone", rv.corpusID)
	}
	training, err := decodeDocument(rv.payload.Training)
	if err != nil {
		return nil, fmt.Errorf("training document: %w", err)
	}
	opts := rv.payload.Options.options()
	opts.QueryCache = entry.qcache
	v, err := NewVerifier(entry.corpus, training, opts)
	if err != nil {
		return nil, err
	}
	v.id, v.corpusID, v.svc = rv.id, rv.corpusID, s
	return v, nil
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
