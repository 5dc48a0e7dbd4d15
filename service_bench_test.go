package scrutinizer

// Service-path benchmarks: the amortization argument of the Verifier/Run
// split in numbers. The cold pair fits a fresh verifier per request — fit
// embeddings + TF-IDF on the document, train four classifiers, then
// verify. The warm pair is the /v1 path: one
// trained Verifier serves every request, and per-request setup collapses
// to cloning its engine (copy-on-write classifiers, no fitting). Setup benches isolate the per-request construction cost;
// Verify benches measure the full request including the Algorithm 1 loop.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/repro/scrutinizer/internal/worldgen"
)

// benchServiceWorld generates the shared benchmark world once per run.
func benchServiceWorld(b *testing.B) *World {
	b.Helper()
	w, err := worldgen.Generate(benchWorldCfg())
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkServiceSetupCold is the per-request construction cost of
// fitting a model per document: NewVerifier (feature fitting + classifier
// bootstrap), the work a fit-per-request server redoes on every request.
func BenchmarkServiceSetupCold(b *testing.B) {
	w := benchServiceWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewVerifier(w.Corpus, w.Document, Options{Seed: 11}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSetupWarm is the per-request construction cost of the
// service path: StartRun on a shared trained Verifier (an engine clone —
// no feature fitting, no training, no weight copies).
func BenchmarkServiceSetupWarm(b *testing.B) {
	w := benchServiceWorld(b)
	v, err := NewVerifier(w.Corpus, w.Document, Options{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.StartRun(context.Background(), w.Document); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceAddCorpus is the cost of registering a corpus.
// ephemeral has no store attached, so no journal record is built: the
// registration is an ID, an entry and a query cache, independent of corpus
// size. journaled has a memory store attached and pays for the
// corpus.create record — a CSV dump of every relation — built before the
// registry lock is taken, plus the append.
func BenchmarkServiceAddCorpus(b *testing.B) {
	w := benchServiceWorld(b)
	b.Run("ephemeral", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewService().AddCorpus("world", w.Corpus); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("journaled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc := NewService()
			if _, err := svc.Recover(NewMemoryStore(), nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceVerifyCold is the full fit-per-request request: fit +
// train a verifier, then verify the document on it.
func BenchmarkServiceVerifyCold(b *testing.B) {
	w := benchServiceWorld(b)
	for i := 0; i < b.N; i++ {
		run, team := startRun(b, w.Corpus, w.Document, w.Document, Options{Seed: 11})
		res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 100})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outcomes) != len(w.Document.Claims) {
			b.Fatalf("verified %d of %d claims", len(res.Outcomes), len(w.Document.Claims))
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(w.Document.Claims))/b.Elapsed().Seconds(), "claims/s")
}

// BenchmarkRecoveryBoot is the boot-time cost of Recover over a populated
// store (one corpus, one trained verifier, one live session with a short
// answer log): the restart latency a -data-dir deployment pays. Recovery
// re-fits features and classifiers from the journaled training document —
// the only boot path — so the sub-benchmark over a memory store is named
// Retrain. File replays the same journal from a file store and adds
// OpenFileStore's scan of it: what a daemon restart pays. Churned is the
// serving-path restart: a file-store journal of churnedLifecycles whole
// tenant lifecycles, all deleted again, and one survivor that keeps an
// open session, so nearly every record belongs to a resource the boot
// must not rebuild.
func BenchmarkRecoveryBoot(b *testing.B) {
	w := benchServiceWorld(b)
	st := NewMemoryStore()
	mgr := NewSessionManager(0, 0)
	svc := NewService()
	if _, err := svc.Recover(st, mgr); err != nil {
		b.Fatal(err)
	}
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		b.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := v.StartSession(context.Background(), mgr, w.Document, SessionOptions{Verify: VerifyOptions{BatchSize: 100}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		qs := sess.Questions()
		if len(qs) == 0 {
			b.Fatal("no pending questions")
		}
		if _, err := sess.Answer(context.Background(), SessionAnswer{ClaimID: qs[0].ClaimID, Value: "suggestion", Seconds: 2}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Retrain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc2 := NewService()
			stats, err := svc2.Recover(st, NewSessionManager(0, 0))
			if err != nil {
				b.Fatal(err)
			}
			if stats.Verifiers != 1 || stats.Sessions != 1 {
				b.Fatalf("unexpected recovery: %+v", stats)
			}
		}
	})
	dir := b.TempDir()
	fst, err := OpenFileStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Replay(fst.Append); err != nil {
		b.Fatal(err)
	}
	if err := fst.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("File", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fst, err := OpenFileStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			stats, err := NewService().Recover(fst, NewSessionManager(0, 0))
			fst.Close()
			if err != nil {
				b.Fatal(err)
			}
			if stats.Verifiers != 1 || stats.Sessions != 1 {
				b.Fatalf("unexpected recovery: %+v", stats)
			}
		}
	})
	churned := churnedJournal(b, w)
	b.Run("Churned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fst, err := OpenFileStore(churned)
			if err != nil {
				b.Fatal(err)
			}
			stats, err := NewService().Recover(fst, NewSessionManager(0, 0))
			fst.Close()
			if err != nil {
				b.Fatal(err)
			}
			if stats.Corpora != 1 || stats.Verifiers != 1 || stats.Sessions != 1 || stats.SessionsSkipped != 0 {
				b.Fatalf("unexpected recovery: %+v", stats)
			}
		}
	})
}

// churnedLifecycles is how many deleted tenant lifecycles churnedJournal
// writes before its survivor.
const churnedLifecycles = 16

// churnedJournal writes, through a service on a file store, the journal of
// churnedLifecycles tenant lifecycles over w, each like a tenant-churn
// client's: create a corpus, PUT every relation as CSV, train a verifier on
// the first half of the document, answer a session over the second half,
// end the session and delete the corpus. One more lifecycle stops before
// its deletes, leaving its session open. It returns the store's directory.
func churnedJournal(b *testing.B, w *World) string {
	b.Helper()
	dir := b.TempDir()
	fst, err := OpenFileStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer fst.Close()
	mgr := NewSessionManager(0, 0)
	svc := NewService()
	if _, err := svc.Recover(fst, mgr); err != nil {
		b.Fatal(err)
	}
	csvs := make(map[string][]byte)
	for _, name := range w.Corpus.Names() {
		rel, err := w.Corpus.Relation(name)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rel.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
		csvs[name] = buf.Bytes()
	}
	half := len(w.Document.Claims) / 2
	training := &Document{Title: "training", Sections: w.Document.Sections, Claims: w.Document.Claims[:half]}
	heldOut := &Document{Title: "held out", Sections: w.Document.Sections, Claims: w.Document.Claims[half:]}
	for i := 0; i <= churnedLifecycles; i++ {
		id := fmt.Sprintf("t%d", i)
		if _, err := svc.AddCorpus(id, NewCorpus()); err != nil {
			b.Fatal(err)
		}
		for _, name := range w.Corpus.Names() {
			if _, _, err := svc.PutRelation(id, name, csvs[name]); err != nil {
				b.Fatal(err)
			}
		}
		v, err := svc.CreateVerifier(id, training, Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := v.StartSession(context.Background(), mgr, heldOut, SessionOptions{Verify: VerifyOptions{BatchSize: 20}})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			qs := sess.Questions()
			if len(qs) == 0 {
				b.Fatal("no pending questions")
			}
			if _, err := sess.Answer(context.Background(), SessionAnswer{ClaimID: qs[0].ClaimID, Value: "suggestion", Seconds: 2}); err != nil {
				b.Fatal(err)
			}
		}
		if i == churnedLifecycles {
			break // the survivor
		}
		mgr.Remove(sess.ID())
		if ok, err := svc.RemoveCorpus(id); !ok || err != nil {
			b.Fatalf("RemoveCorpus(%s): %v %v", id, ok, err)
		}
	}
	return dir
}

// BenchmarkServiceVerifyWarm is the full service request: StartRun +
// verify + Close against one shared trained Verifier (the tracked
// headline for the fit-once / verify-many amortization) — exactly what
// the /v1 batch-run handler does.
func BenchmarkServiceVerifyWarm(b *testing.B) {
	w := benchServiceWorld(b)
	v, err := NewVerifier(w.Corpus, w.Document, Options{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := v.StartRun(context.Background(), w.Document)
		if err != nil {
			b.Fatal(err)
		}
		team, err := v.NewTeam(3)
		if err != nil {
			b.Fatal(err)
		}
		res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 100})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outcomes) != len(w.Document.Claims) {
			b.Fatalf("verified %d of %d claims", len(res.Outcomes), len(w.Document.Claims))
		}
		run.Close()
	}
	b.ReportMetric(float64(b.N)*float64(len(w.Document.Claims))/b.Elapsed().Seconds(), "claims/s")
}
