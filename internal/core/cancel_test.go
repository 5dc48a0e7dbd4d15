package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/formula"
)

// TestCancelVerifyPreCancelled pins the cheapest path: a context that is
// already dead must stop Verify before any batch is scored.
func TestCancelVerifyPreCancelled(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.Verify(ctx, w.Document, team, VerifyConfig{BatchSize: 20})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled verify returned a result: %+v", res)
	}
}

// TestCancelVerifyBetweenRounds cancels from the AfterBatch hook — the
// round boundary — and requires Verify to stop instead of scoring the
// remaining batches.
func TestCancelVerifyBetweenRounds(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	_, err = e.Verify(ctx, w.Document, team, VerifyConfig{
		BatchSize: 10,
		AfterBatch: func(b, verified int, outs []*Outcome) {
			batches = b
			cancel()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if batches != 1 {
		t.Errorf("cancellation after batch 1 ran %d batches", batches)
	}
}

// TestCancelVerifyDeadline drives the same checkpoints through a deadline
// instead of an explicit cancel, pinning the errors.Is mapping HTTP needs
// to distinguish 504 from 503.
func TestCancelVerifyDeadline(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = e.Verify(ctx, w.Document, team, VerifyConfig{BatchSize: 20})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelVerifyClaim covers the single-claim pump path.
func TestCancelVerifyClaim(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.VerifyClaim(ctx, w.Document.Claims[0], team); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelGenerateQueries pins Algorithm 2's enumeration checkpoint: a
// dead context stops query generation, the error wraps the cause, and the
// partial enumeration must NOT be cached — a later call with a live
// context has to produce the full solution set.
func TestCancelGenerateQueries(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	c := w.Document.Claims[0]
	f, err := formula.ParseFormula(c.Truth.Formula)
	if err != nil {
		t.Fatal(err)
	}
	qc := Context{Relations: c.Truth.Relations, Keys: c.Truth.Keys, Attrs: c.Truth.Attrs}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.GenerateQueries(ctx, qc, []*formula.Formula{f}, c.Param, c.HasParam); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled generation err = %v, want context.Canceled", err)
	}
	sols, alts, err := e.GenerateQueries(context.Background(), qc, []*formula.Formula{f}, c.Param, c.HasParam)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols)+len(alts) == 0 {
		t.Fatal("live retry after cancelled generation produced nothing (partial enumeration was cached?)")
	}
}

// TestCancelAnswerRepostable is the session contract: an answer rejected
// by a dead context is rolled back completely — same pending question,
// same sequence — so the client can repost it and get the same outcome it
// would have gotten the first time.
func TestCancelAnswerRepostable(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	dr, err := e.StartDocument(context.Background(), w.Document, VerifyConfig{BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	qs := dr.Questions()
	if len(qs) == 0 {
		t.Fatal("no pending questions after StartDocument")
	}
	q := qs[0]
	var truth *claims.GroundTruth
	for _, c := range w.Document.Claims {
		if c.ID == q.ClaimID {
			truth = c.Truth
		}
	}
	answer := TruthLabel(truth, q.Property)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dr.Answer(ctx, q.ClaimID, answer, 1.0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled answer err = %v, want context.Canceled", err)
	}
	// The question must still be pending, at the same screen and sequence.
	again := dr.QuestionFor(q.ClaimID)
	if again == nil {
		t.Fatal("question vanished after cancelled answer")
	}
	if again.Seq != q.Seq || again.Step != q.Step {
		t.Fatalf("question changed after rollback: seq %d->%d, step %v->%v", q.Seq, again.Seq, q.Step, again.Step)
	}
	// Reposting with a live context succeeds.
	if _, err := dr.Answer(context.Background(), q.ClaimID, answer, 1.0); err != nil {
		t.Fatalf("repost after rollback: %v", err)
	}
}

// TestCancelStartDocument: a dead context stops the first batch selection
// before any claim is scored.
func TestCancelStartDocument(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.StartDocument(ctx, w.Document, VerifyConfig{BatchSize: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelLeavesSourceEngineIntact: a run cancelled mid-verification on
// a clone (after at least one retrain barrier) leaves the engine it was
// cloned from untouched — its models predict exactly as before, and a
// later clone completes a full verification bit-identical to a run on a
// clone taken before the cancelled one.
func TestCancelLeavesSourceEngineIntact(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	before := modelOutputs(e, w.Document.Claims)
	reference := e.Clone()

	team, err := crowd.NewTeam("W", 3, 0.97, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = e.Clone().Verify(ctx, w.Document, team, VerifyConfig{
		BatchSize:  10,
		AfterBatch: func(b, verified int, outs []*Outcome) { cancel() },
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(before, modelOutputs(e, w.Document.Claims)) {
		t.Fatal("the cancelled run perturbed the source engine's models")
	}

	vc := VerifyConfig{BatchSize: 10}
	got := verifyOn(t, e.Clone(), w.Document, vc)
	if len(got.Outcomes) != len(w.Document.Claims) {
		t.Fatalf("clone after a cancelled run verified %d of %d claims", len(got.Outcomes), len(w.Document.Claims))
	}
	mustEqualRuns(t, "clone after a cancelled run", verifyOn(t, reference, w.Document, vc), got)
}

// settleGoroutines polls until the goroutine count returns to the
// baseline or the deadline passes, absorbing runtime bookkeeping noise.
func settleGoroutines(baseline int) int {
	var n int
	for i := 0; i < 100; i++ {
		n = runtime.NumGoroutine()
		if n <= baseline {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestCancelLeavesNoGoroutines is the hygiene invariant: a verification
// cancelled mid-run (with real scoring fan-out) must leave zero worker
// goroutines behind.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := e.Verify(ctx, w.Document, team, VerifyConfig{
			BatchSize:   10,
			Parallelism: 8,
			AfterBatch:  func(b, verified int, outs []*Outcome) { cancel() },
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Errorf("goroutines leaked: %d before, %d after cancelled runs", baseline, n)
	}
}
