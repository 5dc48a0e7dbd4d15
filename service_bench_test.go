package scrutinizer

// Service-path benchmarks: the amortization argument of the Verifier/Run
// split in numbers. The cold pair fits a fresh verifier per request — fit
// embeddings + TF-IDF on the document, train four classifiers, then
// verify. The warm pair is the /v1 path: one
// trained Verifier serves every request, and per-request setup collapses
// to cloning its engine (copy-on-write classifiers, no fitting). Setup benches isolate the per-request construction cost;
// Verify benches measure the full request including the Algorithm 1 loop.

import (
	"context"
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
// the only boot path — so the sub-benchmark is named Retrain.
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
