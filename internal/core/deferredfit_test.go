package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/crowd"
)

// archiveAndDraft trains an engine on the first half of tinyWorld's
// document and returns it with the second half as the document to verify.
func archiveAndDraft(t *testing.T) (*Engine, *claims.Document) {
	t.Helper()
	e, w := buildEngine(t, tinyWorld())
	half := len(w.Document.Claims) / 2
	if err := e.Train(w.Document.Claims[:half]); err != nil {
		t.Fatal(err)
	}
	draft := &claims.Document{Title: w.Document.Title, Claims: w.Document.Claims[half:], Sections: w.Document.Sections}
	return e, draft
}

// TestDeferredFitUnobservable pins that the last barrier's deferred fit
// cannot be observed: after Verify, a run engine reports the generation an
// eager fit would, without running the fit, and once read its models are
// bit-identical to those of a run whose every barrier fitted eagerly.
func TestDeferredFitUnobservable(t *testing.T) {
	e, draft := archiveAndDraft(t)
	team, err := crowd.NewTeam("W", 3, 0.97, 1)
	if err != nil {
		t.Fatal(err)
	}
	vc := VerifyConfig{BatchSize: 10, Parallelism: 2}

	lazy := e.Clone()
	lazyRes, err := lazy.Verify(context.Background(), draft, team, vc)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.pending.Load() == nil {
		t.Fatal("the last barrier fitted its models; want the fit deferred")
	}

	// Reading a model inside every barrier runs the last barrier's fit
	// before the barrier returns: the eager reference.
	eager := e.Clone()
	eagerVC := vc
	eagerVC.AfterBatch = func(int, int, []*Outcome) { eager.Model(PropRelation) }
	eagerRes, err := eager.Verify(context.Background(), draft, team, eagerVC)
	if err != nil {
		t.Fatal(err)
	}
	if eager.pending.Load() != nil {
		t.Fatal("a fit is pending after a model read")
	}
	mustEqualRuns(t, "lazy vs eager", lazyRes, eagerRes)

	if lg, eg := lazy.Generation(), eager.Generation(); lg != eg || lg == e.Generation() {
		t.Errorf("generation lazy %d, eager %d, verifier %d", lg, eg, e.Generation())
	}
	if lazy.pending.Load() == nil {
		t.Fatal("Generation ran the deferred fit")
	}
	for _, k := range PropertyKinds() {
		lm, em := lazy.Model(k), eager.Model(k)
		if !reflect.DeepEqual(lm.Labels(), em.Labels()) {
			t.Fatalf("%s: labels differ", k)
		}
		if lm.TrainedOn() != em.TrainedOn() || lm.WarmStarted() != em.WarmStarted() {
			t.Errorf("%s: trained on %d/%d, warm %v/%v", k, lm.TrainedOn(), em.TrainedOn(), lm.WarmStarted(), em.WarmStarted())
		}
		for _, c := range draft.Claims {
			f := lazy.Featurize(c)
			if !reflect.DeepEqual(lm.Probs(f), em.Probs(f)) {
				t.Fatalf("%s: probabilities of claim %d differ", k, c.ID)
			}
		}
	}
	if lazy.pending.Load() != nil {
		t.Error("a fit is still pending after Model")
	}
}

// TestDeferredFitFailsAtBarrier pins that deferring the last fit defers
// none of its errors: a malformed formula label in the final batch fails
// the run at that barrier, and nothing is left pending.
func TestDeferredFitFailsAtBarrier(t *testing.T) {
	e, draft := archiveAndDraft(t)
	run := e.Clone()
	team, err := crowd.NewTeam("W", 3, 0.97, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dr, err := run.StartDocument(ctx, draft, VerifyConfig{BatchSize: 10, Checkers: team.Size()})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := false
	var genBefore uint64
	for !dr.Done() {
		ids := dr.BatchClaims()
		final := len(dr.remaining) == len(ids)
		genBefore = run.Generation()
		for i, id := range ids {
			if final && i == len(ids)-1 {
				// Every other claim of the final batch is done: give one
				// a label whose formula does not parse.
				for _, other := range ids[:i] {
					if out := dr.runs[other].Outcome(); out.Label != nil {
						out.Label.Formula = "(((("
						poisoned = true
						break
					}
				}
			}
			err = dr.Pump(ctx, id, &teamOracle{engine: run, team: team.ForClaim(id)})
		}
	}
	if !poisoned {
		t.Fatal("no claim of the final batch had a label to poison")
	}
	if err == nil || !strings.Contains(err.Error(), "malformed formula") || dr.Err() != err {
		t.Fatalf("final barrier returned %v (run error %v), want the malformed formula", err, dr.Err())
	}
	if run.pending.Load() != nil {
		t.Error("a failed barrier left a fit pending")
	}
	if run.Generation() != genBefore {
		t.Errorf("generation %d after the failed barrier, %d before", run.Generation(), genBefore)
	}
}

// TestDeferredFitConcurrentReaders pins that readers racing to the
// deferred fit run it exactly once and all see the fitted models: model
// reads, clones and scoring from several goroutines at once (run it under
// -race).
func TestDeferredFitConcurrentReaders(t *testing.T) {
	e, draft := archiveAndDraft(t)
	team, err := crowd.NewTeam("W", 3, 0.97, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Clone()
	if _, err := run.Verify(context.Background(), draft, team, VerifyConfig{BatchSize: 10, Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if run.pending.Load() == nil {
		t.Fatal("the last barrier fitted its models; want the fit deferred")
	}
	var fits atomic.Int32
	SetObserver(&Observer{ModelFit: func(bool) { fits.Add(1) }})
	defer SetObserver(nil)

	c := draft.Claims[0]
	f := run.Featurize(c)
	const readers = 8
	probs := make([][]float64, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				probs[i] = run.Model(PropRelation).Probs(f)
			case 1:
				probs[i] = run.Clone().Model(PropRelation).Probs(f)
			default:
				run.Assess(c)
				probs[i] = run.Model(PropRelation).Probs(f)
			}
		}(i)
	}
	wg.Wait()
	if run.pending.Load() != nil {
		t.Fatal("a fit is still pending after the reads")
	}
	if n := int(fits.Load()); n != numKinds {
		t.Errorf("the deferred fit reported %d model fits, want one per kind (%d)", n, numKinds)
	}
	for i := 1; i < readers; i++ {
		if !reflect.DeepEqual(probs[i], probs[0]) {
			t.Fatalf("reader %d saw other probabilities than reader 0", i)
		}
	}
}
