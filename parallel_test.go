package scrutinizer

import (
	"context"
	"runtime"
	"testing"
)

// TestVerifyDocumentParallelMatchesSequential pins the facade-level
// determinism contract: Run.Verify with Parallelism > 1 returns exactly
// the outcomes of the sequential path, in the same order. The CI run under
// -race doubles as the data-race check on the fan-out.
func TestVerifyDocumentParallelMatchesSequential(t *testing.T) {
	w := testWorld(t)
	run := func(parallelism int) *Result {
		run, team := startRun(t, w.Corpus, w.Document.Unannotated(), w.Document, Options{Seed: 11})
		res, err := run.Verify(context.Background(), team, VerifyOptions{
			BatchSize:       15,
			SectionReadCost: 30,
			Parallelism:     parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	seq := run(1)
	for _, parallelism := range []int{4, runtime.NumCPU()} {
		par := run(parallelism)
		if len(par.Outcomes) != len(seq.Outcomes) {
			t.Fatalf("parallelism %d: %d outcomes, want %d", parallelism, len(par.Outcomes), len(seq.Outcomes))
		}
		if par.Seconds != seq.Seconds {
			t.Errorf("parallelism %d: crowd seconds %g, want %g", parallelism, par.Seconds, seq.Seconds)
		}
		if par.Batches != seq.Batches {
			t.Errorf("parallelism %d: %d batches, want %d", parallelism, par.Batches, seq.Batches)
		}
		if par.Accuracy() != seq.Accuracy() {
			t.Errorf("parallelism %d: accuracy %g, want %g", parallelism, par.Accuracy(), seq.Accuracy())
		}
		for i := range seq.Outcomes {
			s, p := seq.Outcomes[i], par.Outcomes[i]
			if s.ClaimID != p.ClaimID || s.Verdict != p.Verdict || s.Seconds != p.Seconds {
				t.Fatalf("parallelism %d: outcome %d differs: {%d %v %g} vs {%d %v %g}",
					parallelism, i, p.ClaimID, p.Verdict, p.Seconds, s.ClaimID, s.Verdict, s.Seconds)
			}
		}
	}
}
