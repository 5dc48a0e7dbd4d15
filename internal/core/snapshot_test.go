package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/crowd"
)

// A run's engine is an Engine.Clone of the trained engine: a snapshot of
// its trained state whose four classifiers share weights copy-on-write.
// The tests below pin that a run on a clone — however much it retrains —
// never reaches back into the engine it was cloned from.

// modelOutputs records what every model of e predicts for every claim: the
// observable trained state a run must not perturb.
func modelOutputs(e *Engine, cs []*claims.Claim) map[PropertyKind][][]classifier.Prediction {
	out := make(map[PropertyKind][][]classifier.Prediction, 4)
	for _, k := range PropertyKinds() {
		for _, c := range cs {
			out[k] = append(out[k], e.Model(k).TopK(e.Featurize(c), 1<<20))
		}
	}
	return out
}

// verifyOn runs the whole document on eng with a fixed simulated team.
func verifyOn(t *testing.T, eng *Engine, doc *claims.Document, vc VerifyConfig) *Result {
	t.Helper()
	team, err := crowd.NewTeam("W", 3, 0.97, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Verify(context.Background(), doc, team, vc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSnapshotSpawnEquivalence: runs on clones of one trained engine are
// bit-identical, each starts with empty per-run caches, and none of them
// — although every run retrains its clone at each batch barrier — moves
// the source engine's models or generation.
func TestSnapshotSpawnEquivalence(t *testing.T) {
	w, pipe := batchFixture(t)
	e := engineOver(t, w, pipe, nil)
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	before := modelOutputs(e, w.Document.Claims)
	vc := VerifyConfig{BatchSize: 20}

	first := e.Clone()
	if len(first.featCache) != 0 || len(first.assessed) != 0 {
		t.Fatal("a clone must start with empty per-run caches")
	}
	want := verifyOn(t, first, w.Document, vc)
	if first.Generation() == gen {
		t.Fatal("the run should have retrained its clone past the source generation")
	}
	for i := 0; i < 2; i++ {
		mustEqualRuns(t, "repeated clone run", want, verifyOn(t, e.Clone(), w.Document, vc))
	}
	if e.Generation() != gen {
		t.Fatalf("source generation moved %d -> %d", gen, e.Generation())
	}
	if !reflect.DeepEqual(before, modelOutputs(e, w.Document.Claims)) {
		t.Fatal("runs on clones perturbed the source engine's models")
	}
}

// TestSnapshotConcurrentSpawns: clones taken concurrently from one engine
// and verifying concurrently (each retraining its own clone at batch
// barriers) agree with each other — the -race run is the actual assertion
// that no state is shared mutably.
func TestSnapshotConcurrentSpawns(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}

	const n = 4
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			team, err := crowd.NewTeam("W", 3, 0.97, 8)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = e.Clone().Verify(context.Background(), w.Document, team, VerifyConfig{
				BatchSize: 20, Parallelism: 2,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		mustEqualRuns(t, "concurrent clone run", results[0], results[i])
	}
}

// TestSnapshotGeneration: a clone inherits the generation of the engine it
// was taken from, and retraining the clone advances only the clone's.
func TestSnapshotGeneration(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if e.Clone().Generation() != 0 {
		t.Fatal("clone of a cold engine has generation != 0")
	}
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	c := e.Clone()
	if c.Generation() != gen || gen == 0 {
		t.Fatalf("clone generation %d, engine %d", c.Generation(), gen)
	}
	if err := c.Train(w.Document.Claims[:20]); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != gen+1 || e.Generation() != gen {
		t.Fatalf("after the clone's retrain: clone %d, engine %d (was %d)", c.Generation(), e.Generation(), gen)
	}
}
