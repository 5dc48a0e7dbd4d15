package core

import (
	"context"
	"testing"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// fitRecord is one model's last fit, as a barrier observer sees it.
type fitRecord struct {
	pool, steps int
	warm        bool
}

func lastFit(m *classifier.Classifier) fitRecord {
	return fitRecord{pool: m.TrainedOn(), steps: m.Steps(), warm: m.WarmStarted()}
}

// fullSteps is the work of a fit that passes over its whole pool.
func fullSteps(cfg classifier.Config, f fitRecord) int {
	if f.warm {
		return f.pool * cfg.WarmStartEpochs
	}
	return f.pool * cfg.Epochs
}

// TestBarrierFitsReplaySample pins which fits replay-sample. A verifier
// trained on 240 claims runs a 360-claim draft in batches of 120. A run's
// first fit of a kind passes over its whole pool, although the verifier's
// model it starts from was fitted on more than ReplaySample claims; so do
// later barrier fits while the previous pool is at most ReplaySample. Once
// it is larger, a barrier fit makes (new + ReplaySample) × WarmStartEpochs
// steps. Engine.Train (Verifier.Retrain) always passes over the whole
// pool.
func TestBarrierFitsReplaySample(t *testing.T) {
	wc := worldgen.SmallScale()
	wc.NumClaims = 600
	e, w := buildEngine(t, wc)
	cfg := e.cfg
	cfg.Classifier.WarmStartEpochs = 2
	e, err := NewEngine(e.corpus, e.pipe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.Classifier
	archive := w.Document.Claims[:240]
	draft := &claims.Document{Title: w.Document.Title, Claims: w.Document.Claims[240:], Sections: w.Document.Sections}
	if err := e.Train(archive); err != nil {
		t.Fatal(err)
	}
	for _, k := range PropertyKinds() {
		if f := lastFit(e.Model(k)); f.pool <= classifier.ReplaySample || f.steps != fullSteps(cc, f) {
			t.Fatalf("%s: verifier fit %+v, want a full pass over more than %d claims", k, f, classifier.ReplaySample)
		}
	}

	team, err := crowd.NewTeam("W", 3, 0.97, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Clone()
	var barriers [][numKinds]fitRecord
	_, err = run.Verify(context.Background(), draft, team, VerifyConfig{
		BatchSize: 120, Parallelism: 2, Ordering: OrderSequential,
		AfterBatch: func(int, int, []*Outcome) {
			var b [numKinds]fitRecord
			for _, k := range PropertyKinds() {
				b[k] = lastFit(run.Model(k)) // runs the last barrier's deferred fit
			}
			barriers = append(barriers, b)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(barriers) != 3 {
		t.Fatalf("%d barriers, want 3", len(barriers))
	}
	replayed := 0
	for bi, b := range barriers {
		for _, k := range PropertyKinds() {
			f := b[k]
			want := fullSteps(cc, f)
			if bi > 0 {
				if old := barriers[bi-1][k].pool; old > classifier.ReplaySample {
					want = (f.pool - old + classifier.ReplaySample) * cc.WarmStartEpochs
					replayed++
				}
			}
			if f.steps != want {
				t.Errorf("barrier %d %s: %+v, want %d steps", bi+1, k, f, want)
			}
		}
	}
	if replayed == 0 {
		t.Fatal("no barrier fit replay-sampled")
	}

	// Retrain passes over the whole pool, whatever the previous one was.
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	for _, k := range PropertyKinds() {
		if f := lastFit(e.Model(k)); !f.warm || f.steps != fullSteps(cc, f) {
			t.Errorf("%s: Train fit %+v, want a warm full pass (%d steps)", k, f, fullSteps(cc, f))
		}
	}
}
