package scrutinizer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/repro/scrutinizer/internal/session"
	"github.com/repro/scrutinizer/internal/store"
)

// This file is the library half of the crash-recovery harness (the HTTP
// half lives in cmd/scrutinizerd): a service with an attached store is
// driven partway through the /v1 lifecycle, "crashes" (the live objects are
// abandoned), and a fresh service recovers from the journal. The assertions
// are bit-identity — recovery is only correct if the recovered registry
// verifies exactly like the one that never crashed.

// recoveryWorld is a small world: recovery tests replay journals many times
// over, so the per-replay training cost matters.
func recoveryWorld(t *testing.T) *World {
	t.Helper()
	cfg := SmallWorld()
	cfg.NumClaims = 16
	cfg.NumSections = 3
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// attachedService builds an empty service attached to st (Recover on a
// fresh store is the documented way to attach).
func attachedService(t *testing.T, st Store, mgr *SessionManager) *Service {
	t.Helper()
	svc := NewService()
	if _, err := svc.Recover(st, mgr); err != nil {
		t.Fatal(err)
	}
	return svc
}

// answerNext feeds the session's first pending question a fixed answer —
// the deterministic checker of the harness: both the reference run and the
// recovered run answer every question identically, so their final reports
// must agree bit for bit.
func answerNext(t *testing.T, sess *Session) {
	t.Helper()
	qs := sess.Questions()
	if len(qs) == 0 {
		t.Fatal("no pending questions")
	}
	if _, err := sess.Answer(context.Background(), SessionAnswer{ClaimID: qs[0].ClaimID, Value: "suggestion", Seconds: 2}); err != nil {
		t.Fatal(err)
	}
}

// driveToCompletion answers until the session reports done.
func driveToCompletion(t *testing.T, sess *Session) {
	t.Helper()
	for i := 0; !sess.Done(); i++ {
		if i > 10000 {
			t.Fatal("session did not converge")
		}
		answerNext(t, sess)
	}
}

// mustEqualReports asserts two session reports are bit-identical.
func mustEqualReports(t *testing.T, label string, want, got SessionReport) {
	t.Helper()
	if want.Done != got.Done || want.Seconds != got.Seconds ||
		want.Batches != got.Batches || want.Accuracy != got.Accuracy {
		t.Fatalf("%s: report header diverged: %+v vs %+v", label, got, want)
	}
	if len(want.Outcomes) != len(got.Outcomes) {
		t.Fatalf("%s: outcome counts %d vs %d", label, len(got.Outcomes), len(want.Outcomes))
	}
	for i := range want.Outcomes {
		a, b := want.Outcomes[i], got.Outcomes[i]
		if a.ClaimID != b.ClaimID || a.Verdict != b.Verdict || a.Seconds != b.Seconds ||
			a.Value != b.Value || a.HasSuggestion != b.HasSuggestion || a.Suggestion != b.Suggestion {
			t.Fatalf("%s: outcome %d diverged: %+v vs %+v", label, i, b, a)
		}
	}
}

// TestRecoveryRoundTrip is the core harness: drive a corpus + verifier +
// interactive session partway, recover a fresh service from the journal,
// and assert the recovered registry is bit-identical to the uninterrupted
// one — same session state, same remaining walkthrough, same training
// count, same batch-run verdicts from the verifier retrained from its
// journaled training document.
func TestRecoveryRoundTrip(t *testing.T) {
	w := recoveryWorld(t)
	docA, docB := splitWorldDoc(w)
	st := NewMemoryStore()
	mgr := NewSessionManager(0, 0)
	svc := attachedService(t, st, mgr)

	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{Verify: VerifyOptions{BatchSize: 6, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		answerNext(t, sess)
	}
	preCrash := sess.Progress()

	// "Crash": the live service is abandoned; only the store survives.
	mgr2 := NewSessionManager(0, 0)
	svc2 := NewService()
	stats, err := svc2.Recover(st, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corpora != 1 || stats.Verifiers != 1 || stats.Sessions != 1 || stats.SessionsSkipped != 0 {
		t.Fatalf("recovery stats: %+v", stats)
	}

	sess2, ok := mgr2.Get(sess.ID())
	if !ok {
		t.Fatalf("session %q not recovered", sess.ID())
	}
	if sess2.Owner() != v.ID() {
		t.Fatalf("recovered session owner %q, want %q", sess2.Owner(), v.ID())
	}
	p := sess2.Progress()
	if p.Answered != preCrash.Answered || p.Verified != preCrash.Verified ||
		p.Batches != preCrash.Batches || p.PendingQuestions != preCrash.PendingQuestions ||
		p.CrowdSeconds != preCrash.CrowdSeconds || p.ModelGeneration != preCrash.ModelGeneration {
		t.Fatalf("recovered progress diverged:\n  got  %+v\n  want %+v", p, preCrash)
	}
	if !reflect.DeepEqual(sess2.Questions(), sess.Questions()) {
		t.Fatal("recovered session queues different questions")
	}

	// Finish both sessions with the same deterministic checker: the
	// recovered walkthrough must end in the same report.
	driveToCompletion(t, sess)
	driveToCompletion(t, sess2)
	mustEqualReports(t, "session after recovery", sess.Report(), sess2.Report())

	// And the recovered verifier verifies a second document bit-identically.
	v2, ok := svc2.Verifier(v.ID())
	if !ok {
		t.Fatal("verifier not recovered")
	}
	if v2.TrainedOn() != v.TrainedOn() {
		t.Fatalf("trained_on %d vs %d", v2.TrainedOn(), v.TrainedOn())
	}
	mustEqualResults(t, "batch run after recovery", batchRun(t, v, docB), batchRun(t, v2, docB))
}

// TestRecoveryRetrainFallback pins the retrain path on its own, without a
// session manager: a service recovered from a copy of the journal alone
// rebuilds the verifier by retraining on its journaled training document,
// with the same training count and bit-identical batch verdicts.
func TestRecoveryRetrainFallback(t *testing.T) {
	w := recoveryWorld(t)
	_, docB := splitWorldDoc(w)
	st := NewMemoryStore()
	svc := attachedService(t, st, nil)
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	journal := st.CloneWithPrefix(int(st.Stats().Records))
	svc2 := NewService()
	stats, err := svc2.Recover(journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corpora != 1 || stats.Verifiers != 1 || stats.Sessions != 0 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	v2, ok := svc2.Verifier(v.ID())
	if !ok {
		t.Fatal("verifier not recovered")
	}
	if v2.TrainedOn() != v.TrainedOn() {
		t.Fatalf("trained_on %d vs %d", v2.TrainedOn(), v.TrainedOn())
	}
	mustEqualResults(t, "retrained verifier", batchRun(t, v, docB), batchRun(t, v2, docB))
}

// batchRun verifies doc on a fresh run of v with a fixed team and batch.
func batchRun(t *testing.T, v *Verifier, doc *Document) *Result {
	t.Helper()
	run, err := v.StartRun(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	team, err := v.NewTeam(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecoveryBuildsOnlySurvivingCorpora: recovery folds the journal before
// it decodes any relation CSV, so a corpus deleted later in the journal is
// never built — not even when its relation dump would not parse.
func TestRecoveryBuildsOnlySurvivingCorpora(t *testing.T) {
	st := NewMemoryStore()
	bad, err := json.Marshal(store.RelationPayload{Name: "broken", CSV: "key,\"unterminated\n"})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*store.Record{
		{Op: store.OpCorpusCreate, Corpus: "gone"},
		{Op: store.OpRelationPut, Corpus: "gone", Relation: "broken", Payload: bad},
		{Op: store.OpCorpusDelete, Corpus: "gone"},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// The dump really is undecodable: a surviving corpus holding it fails
	// recovery.
	if _, err := NewService().Recover(st.CloneWithPrefix(2), nil); err == nil {
		t.Fatal("recovering a surviving corpus with an unparsable relation succeeded")
	}

	svc := NewService()
	stats, err := svc.Recover(st, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Records != 3 || stats.Corpora != 0 || len(svc.Corpora()) != 0 {
		t.Fatalf("deleted corpus came back: stats %+v, corpora %+v", stats, svc.Corpora())
	}

	// Re-creating the ID brings back only the new, empty incarnation,
	// counted once.
	if err := st.Append(&store.Record{Op: store.OpCorpusCreate, Corpus: "gone"}); err != nil {
		t.Fatal(err)
	}
	svc = NewService()
	if stats, err = svc.Recover(st, nil); err != nil {
		t.Fatalf("Recover after re-create: %v", err)
	}
	if ci := svc.Corpora(); stats.Corpora != 1 || len(ci) != 1 || ci[0].Relations != 0 {
		t.Fatalf("re-created corpus: stats %+v, corpora %+v", stats, ci)
	}
}

// TestRecoveryIgnoresStraySnapshotDir: data directories written before the
// journal became the only durable state may still hold a snapshots/
// directory of model blobs. The file store neither reads nor removes it, and
// recovery retrains from the journal — so even a garbage blob under the
// verifier's old name changes nothing.
func TestRecoveryIgnoresStraySnapshotDir(t *testing.T) {
	w := recoveryWorld(t)
	docA, docB := splitWorldDoc(w)
	dir := t.TempDir()
	stray := filepath.Join(dir, "snapshots", "verifier-v1.snap")
	if err := os.MkdirAll(filepath.Dir(stray), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray, []byte("\x00not a model{"), 0o644); err != nil {
		t.Fatal(err)
	}

	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewSessionManager(0, 0)
	svc := attachedService(t, fs, mgr)
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID() != "v1" {
		t.Fatalf("verifier id %q, want v1 to collide with the stray blob's name", v.ID())
	}
	sess, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{Verify: VerifyOptions{BatchSize: 6, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		answerNext(t, sess)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	mgr2 := NewSessionManager(0, 0)
	svc2 := NewService()
	stats, err := svc2.Recover(fs2, mgr2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Corpora != 1 || stats.Verifiers != 1 || stats.Sessions != 1 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	sess2, ok := mgr2.Get(sess.ID())
	if !ok {
		t.Fatalf("session %q not recovered", sess.ID())
	}
	driveToCompletion(t, sess)
	driveToCompletion(t, sess2)
	mustEqualReports(t, "session after reopen", sess.Report(), sess2.Report())
	v2, ok := svc2.Verifier(v.ID())
	if !ok {
		t.Fatal("verifier not recovered")
	}
	mustEqualResults(t, "batch run after reopen", batchRun(t, v, docB), batchRun(t, v2, docB))

	if data, err := os.ReadFile(stray); err != nil || string(data) != "\x00not a model{" {
		t.Fatalf("stray snapshot file changed: now %d bytes, %v", len(data), err)
	}
}

// registrySummary flattens the recoverable state into comparable strings:
// corpora with their shapes, verifiers with their training counts, and the
// progress of every session in ids.
func registrySummary(svc *Service, mgr *SessionManager, ids []string) []string {
	var out []string
	for _, ci := range svc.Corpora() {
		out = append(out, fmt.Sprintf("corpus %s rel=%d rows=%d cells=%d", ci.ID, ci.Relations, ci.Rows, ci.Cells))
	}
	for _, vi := range svc.Verifiers() {
		out = append(out, fmt.Sprintf("verifier %s corpus=%s trained=%d", vi.ID, vi.CorpusID, vi.TrainedOn))
	}
	if mgr != nil {
		for _, id := range ids {
			sess, ok := mgr.Get(id)
			if !ok {
				out = append(out, fmt.Sprintf("session %s gone", id))
				continue
			}
			p := sess.Progress()
			out = append(out, fmt.Sprintf("session %s answered=%d verified=%d batches=%d pending=%d secs=%v done=%v",
				id, p.Answered, p.Verified, p.Batches, p.PendingQuestions, p.CrowdSeconds, p.Done))
		}
	}
	return out
}

// TestRecoveryJournalPrefixProperty is the property test: after every
// single mutation of a full walkthrough, the live registry state is
// captured; recovering a fresh service from exactly that journal prefix
// must reproduce the captured state. Since every mutation appends exactly
// one record, the checkpoints cover every journal prefix.
func TestRecoveryJournalPrefixProperty(t *testing.T) {
	w := recoveryWorld(t)
	docA, _ := splitWorldDoc(w)
	st := NewMemoryStore()
	mgr := NewSessionManager(0, 0)
	svc := attachedService(t, st, mgr)

	var sessIDs []string
	type checkpoint struct {
		records int
		ids     []string
		summary []string
	}
	var checkpoints []checkpoint
	mark := func() {
		ids := append([]string(nil), sessIDs...)
		checkpoints = append(checkpoints, checkpoint{
			records: int(st.Stats().Records),
			ids:     ids,
			summary: registrySummary(svc, mgr, ids),
		})
	}

	mark() // empty prefix
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	mark()
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mark()
	sess, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{Verify: VerifyOptions{BatchSize: 5, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	sessIDs = append(sessIDs, sess.ID())
	mark()
	for i := 0; i < 3; i++ {
		answerNext(t, sess)
		mark()
	}

	// A scratch corpus exercises relation put/delete/put and the delete
	// cascade over a second verifier.
	if _, err := svc.AddCorpus("scratch", NewCorpus()); err != nil {
		t.Fatal(err)
	}
	mark()
	rel, err := w.Corpus.Relation(w.Corpus.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := rel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.PutRelation("scratch", rel.Name(), csv.Bytes()); err != nil {
		t.Fatal(err)
	}
	mark()
	if existed, err := svc.DropRelation("scratch", rel.Name()); err != nil || !existed {
		t.Fatalf("DropRelation: existed=%v err=%v", existed, err)
	}
	mark()
	if _, _, err := svc.PutRelation("scratch", rel.Name(), csv.Bytes()); err != nil {
		t.Fatal(err)
	}
	mark()
	if ok, err := svc.RemoveCorpus("scratch"); err != nil || !ok {
		t.Fatalf("RemoveCorpus: ok=%v err=%v", ok, err)
	}
	mark()
	if removed := mgr.Remove(sess.ID()); !removed {
		t.Fatal("Remove session failed")
	}
	mark()

	if got := int(st.Stats().Records); got != len(checkpoints)-1 {
		t.Fatalf("each mutation should journal exactly one record: %d records, %d checkpoints", got, len(checkpoints))
	}

	for _, cp := range checkpoints {
		prefix := st.CloneWithPrefix(cp.records)
		mgr2 := NewSessionManager(0, 0)
		svc2 := NewService()
		if _, err := svc2.Recover(prefix, mgr2); err != nil {
			t.Fatalf("prefix %d: recover: %v", cp.records, err)
		}
		got := registrySummary(svc2, mgr2, cp.ids)
		if !reflect.DeepEqual(got, cp.summary) {
			t.Fatalf("prefix %d diverged:\n  got  %v\n  want %v", cp.records, got, cp.summary)
		}

		// Compacted, the prefix recovers the same state.
		compacted := compactedCopy(t, st.CloneWithPrefix(cp.records))
		mgr3 := NewSessionManager(0, 0)
		svc3 := NewService()
		if _, err := svc3.Recover(compacted, mgr3); err != nil {
			t.Fatalf("compacted prefix %d: recover: %v", cp.records, err)
		}
		if got := registrySummary(svc3, mgr3, cp.ids); !reflect.DeepEqual(got, cp.summary) {
			t.Fatalf("compacted prefix %d diverged:\n  got  %v\n  want %v", cp.records, got, cp.summary)
		}
	}
}

// compactedCopy copies st's journal into a file store and compacts it.
// The store is closed when the test ends.
func compactedCopy(t *testing.T, st Store) *store.File {
	t.Helper()
	fst, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	if err := st.Replay(fst.Append); err != nil {
		t.Fatal(err)
	}
	if err := fst.Compact(); err != nil {
		t.Fatal(err)
	}
	return fst
}

// TestRecoveryCompactionKeepsMintedIDs: a compaction drops a deleted
// corpus's and verifier's records, yet after it a restart mints the same
// next IDs as after the uncompacted journal, never a deleted one: the
// compacted journal's watermark record carries the counters.
func TestRecoveryCompactionKeepsMintedIDs(t *testing.T) {
	w := recoveryWorld(t)
	st := NewMemoryStore()
	svc := attachedService(t, st, nil)
	id, err := svc.AddCorpus("", w.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateVerifier(id, w.Document, Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if ok, err := svc.RemoveCorpus(id); !ok || err != nil {
		t.Fatalf("RemoveCorpus: %v %v", ok, err)
	}
	next := func(st Store) (string, string) {
		t.Helper()
		svc := attachedService(t, st, nil)
		id, err := svc.AddCorpus("", w.Corpus)
		if err != nil {
			t.Fatal(err)
		}
		v, err := svc.CreateVerifier(id, w.Document, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return id, v.ID()
	}
	compacted := compactedCopy(t, st)
	if n := compacted.Stats().Records; n != 1 {
		t.Fatalf("compacted journal holds %d records, want the watermark alone", n)
	}
	wantC, wantV := next(st.CloneWithPrefix(int(st.Stats().Records)))
	gotC, gotV := next(compacted)
	if wantC != "c2" || wantV != "v2" || gotC != wantC || gotV != wantV {
		t.Fatalf("next IDs after compaction %s/%s, uncompacted %s/%s, want c2/v2", gotC, gotV, wantC, wantV)
	}
}

// fakeClock is a deterministic time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestRecoveryExpiredSessionNotResurrected: a session evicted by the TTL
// sweep journals its deletion, so recovery must not bring it back — an
// expired walkthrough stays expired across a restart.
func TestRecoveryExpiredSessionNotResurrected(t *testing.T) {
	w := recoveryWorld(t)
	docA, _ := splitWorldDoc(w)
	st := NewMemoryStore()
	clk := &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	mgr := session.NewManager(session.Config{TTL: time.Minute, Clock: clk.Now})
	svc := attachedService(t, st, mgr)

	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{Verify: VerifyOptions{BatchSize: 5}})
	if err != nil {
		t.Fatal(err)
	}
	answerNext(t, sess)
	id := sess.ID()

	clk.Advance(2 * time.Minute)
	if stats := mgr.Stats(); stats.Active != 0 || stats.EvictedTotal != 1 {
		t.Fatalf("session should be TTL-evicted: %+v", stats)
	}

	// The eviction must be durable: a fresh recovery sees the delete
	// record and does not re-park the session.
	mgr2 := NewSessionManager(0, 0)
	svc2 := NewService()
	stats, err := svc2.Recover(st, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 0 || stats.SessionsSkipped != 0 {
		t.Fatalf("expired session resurrected: %+v", stats)
	}
	if _, ok := mgr2.Get(id); ok {
		t.Fatalf("session %q came back from the dead", id)
	}
	if stats.Verifiers != 1 {
		t.Fatalf("verifier should survive: %+v", stats)
	}
}

// TestRecoveryJournalFailureRollsBack: when the store stops accepting
// appends (fault injection), every mutation is rolled back and surfaces
// ErrJournal — the registry never acknowledges state the journal does not
// hold, so a recovery matches exactly what clients were told succeeded.
func TestRecoveryJournalFailureRollsBack(t *testing.T) {
	w := recoveryWorld(t)
	docA, _ := splitWorldDoc(w)
	inner := NewMemoryStore()
	faulty := NewFaultyStore(inner, 2, false) // corpus create + verifier create succeed
	mgr := NewSessionManager(0, 0)
	svc := attachedService(t, faulty, mgr)

	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	// Budget exhausted: every further mutation must fail with ErrJournal
	// and leave no trace.
	if _, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{}); err == nil {
		t.Fatal("StartSession acknowledged without a journal record")
	}
	if stats := mgr.Stats(); stats.Active != 0 {
		t.Fatalf("rolled-back session still registered: %+v", stats)
	}
	if _, err := svc.AddCorpus("doomed", NewCorpus()); !errors.Is(err, ErrJournal) || !errors.Is(err, store.ErrInjected) {
		t.Fatalf("AddCorpus: want ErrJournal wrapping the injected fault, got %v", err)
	}
	if _, ok := svc.Corpus("doomed"); ok {
		t.Fatal("rolled-back corpus still registered")
	}
	if ok, err := svc.RemoveVerifier(v.ID()); !errors.Is(err, ErrJournal) || ok {
		t.Fatalf("RemoveVerifier: want ErrJournal, got ok=%v err=%v", ok, err)
	}
	if _, ok := svc.Verifier(v.ID()); !ok {
		t.Fatal("failed removal lost the verifier")
	}
	if ok, err := svc.RemoveCorpus("world"); !errors.Is(err, ErrJournal) || ok {
		t.Fatalf("RemoveCorpus: want ErrJournal, got ok=%v err=%v", ok, err)
	}
	if _, ok := svc.Corpus("world"); !ok {
		t.Fatal("failed removal lost the corpus")
	}
	if !faulty.Tripped() {
		t.Fatal("fault injector never tripped")
	}

	// The journal holds exactly the two acknowledged mutations.
	svc2 := NewService()
	stats, err := svc2.Recover(inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.Corpora != 1 || stats.Verifiers != 1 {
		t.Fatalf("recovered more or less than was acknowledged: %+v", stats)
	}
}

// TestRecoveryRequiresEmptyService: Recover is a boot-time call; a
// populated registry must refuse it rather than merge.
func TestRecoveryRequiresEmptyService(t *testing.T) {
	w := recoveryWorld(t)
	svc := NewService()
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Recover(NewMemoryStore(), nil); err == nil {
		t.Fatal("Recover merged into a populated service")
	}
	if _, err := svc.Recover(nil, nil); err == nil {
		t.Fatal("Recover accepted a nil store")
	}
}

// TestRecoveryDeleteEndsSessions: deleting a verifier, directly or through
// its corpus, ends its sessions and journals their deletes, so the live
// registry holds what a restart rebuilds and nothing is skipped at boot. A
// session started on a verifier already deleted is refused, and a service
// without a store ends sessions all the same.
func TestRecoveryDeleteEndsSessions(t *testing.T) {
	w := recoveryWorld(t)
	docA, _ := splitWorldDoc(w)
	for _, tc := range []struct {
		name   string
		remove func(svc *Service, v *Verifier) (bool, error)
	}{
		{"verifier", func(svc *Service, v *Verifier) (bool, error) { return svc.RemoveVerifier(v.ID()) }},
		{"corpus", func(svc *Service, v *Verifier) (bool, error) { return svc.RemoveCorpus("world") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, durable := range []bool{true, false} {
				st := NewMemoryStore()
				mgr := NewSessionManager(0, 0)
				svc := NewService()
				if durable {
					svc = attachedService(t, st, mgr)
				}
				if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
					t.Fatal(err)
				}
				v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				opts := SessionOptions{Verify: VerifyOptions{BatchSize: 5, Seed: 2}}
				var ids []string
				for i := 0; i < 2; i++ {
					sess, err := v.StartSession(context.Background(), mgr, docA, opts)
					if err != nil {
						t.Fatal(err)
					}
					answerNext(t, sess)
					ids = append(ids, sess.ID())
				}
				if ok, err := tc.remove(svc, v); !ok || err != nil {
					t.Fatalf("remove: ok=%v err=%v", ok, err)
				}
				for _, id := range ids {
					if _, ok := mgr.Get(id); ok {
						t.Fatalf("durable=%v: session %s outlived its verifier", durable, id)
					}
				}
				if _, err := v.StartSession(context.Background(), mgr, docA, opts); err == nil {
					t.Fatalf("durable=%v: a deleted verifier started a session", durable)
				}
				if n := mgr.Stats().Active; n != 0 {
					t.Fatalf("durable=%v: %d sessions left", durable, n)
				}
				if !durable {
					continue
				}
				stats, err := NewService().Recover(st, NewSessionManager(0, 0))
				if err != nil {
					t.Fatal(err)
				}
				if stats.Verifiers != 0 || stats.Sessions != 0 || stats.SessionsSkipped != 0 {
					t.Fatalf("recovery stats: %+v", stats)
				}
			}
		})
	}
}
