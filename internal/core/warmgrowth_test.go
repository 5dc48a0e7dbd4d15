package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/embed"
	"github.com/repro/scrutinizer/internal/feature"
	"github.com/repro/scrutinizer/internal/textproc"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// warmGrowthRun mirrors one verifier run of the service: an engine under
// cfg is trained on the first half of a SmallScale world's document (the
// archive of checked claims), and a clone of it verifies the second half
// (the draft) in batches of 10 with a team of three 97%-accurate checkers.
// It returns the run's result and accuracy, and for every barrier the
// warm flags of the models fitted there, in order.
func warmGrowthRun(t *testing.T, seed int64, cfg Config) (*Result, float64, [][]bool) {
	t.Helper()
	wc := worldgen.SmallScale()
	wc.Seed = seed
	w, err := worldgen.Generate(wc)
	if err != nil {
		t.Fatal(err)
	}
	half := len(w.Document.Claims) / 2
	archive := w.Document.Claims[:half]
	draft := &claims.Document{Title: w.Document.Title, Claims: w.Document.Claims[half:], Sections: w.Document.Sections}
	var sentences, texts []string
	for _, c := range archive {
		sentences = append(sentences, c.Sentence)
		texts = append(texts, c.Text)
	}
	pipe, err := feature.Fit(sentences, texts, feature.Config{Embedding: embed.Config{Dim: 24, Seed: 5}, MinDF: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(w.Corpus, pipe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(archive); err != nil {
		t.Fatal(err)
	}
	team, err := crowd.NewTeam("W", 3, 0.97, seed)
	if err != nil {
		t.Fatal(err)
	}

	// The observer is process-wide; tests in this package do not run in
	// parallel, so it sees this run's barriers only.
	var barriers [][]bool
	SetObserver(&Observer{
		Retrain:  func() { barriers = append(barriers, nil) },
		ModelFit: func(warm bool) { barriers[len(barriers)-1] = append(barriers[len(barriers)-1], warm) },
	})
	defer SetObserver(nil)
	run := e.Clone()
	res, err := run.Verify(context.Background(), draft, team, VerifyConfig{BatchSize: 10, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The last barrier defers its fit until something reads the models;
	// reading one runs it, so the last barrier reports its fits too.
	run.Model(PropRelation)
	return res, Accuracy(draft, res.Outcomes), barriers
}

// TestWarmGrowthQualityLock is the engine-level quality lock of
// warm-start retraining over a growing label vocabulary: over eight
// seeds, runs under the default config ask the crowd for the same total
// time (within 3%) and reach the same accuracy (within 0.01) as the same
// runs with every retrain refitting from scratch. The lock is on the
// totals because a single 60-claim run swings by about ±6% either way —
// different weights put different questions first — while the totals
// carry the systematic difference. Every default run's first barrier
// refits cold (its labels cover only part of the archive vocabulary, so
// some vanished) and every later barrier warm-starts every model it fits.
func TestWarmGrowthQualityLock(t *testing.T) {
	var warmS, coldS, warmAcc, coldAcc float64
	var warmN, coldN int
	const seeds = 8
	for seed := int64(1); seed <= seeds; seed++ {
		warm, wAcc, fits := warmGrowthRun(t, seed, DefaultConfig())
		coldCfg := DefaultConfig()
		coldCfg.Classifier.ColdStart = true
		cold, cAcc, coldFits := warmGrowthRun(t, seed, coldCfg)
		t.Logf("seed %d: crowd s/claim warm %.2f cold %.2f, accuracy warm %.4f cold %.4f, %d barriers",
			seed, warm.Seconds/float64(len(warm.Outcomes)), cold.Seconds/float64(len(cold.Outcomes)), wAcc, cAcc, len(fits))
		warmS += warm.Seconds
		coldS += cold.Seconds
		warmN += len(warm.Outcomes)
		coldN += len(cold.Outcomes)
		warmAcc += wAcc / seeds
		coldAcc += cAcc / seeds

		if len(fits) < 3 {
			t.Fatalf("seed %d: only %d barriers; the lock needs growth barriers", seed, len(fits))
		}
		for b, bf := range fits {
			if len(bf) == 0 {
				t.Fatalf("seed %d barrier %d fitted no model", seed, b+1)
			}
			for _, w := range bf {
				if b == 0 && w {
					t.Errorf("seed %d: the first barrier warm-started; its labels cover only part of the archive vocabulary", seed)
				}
				if b > 0 && !w {
					t.Errorf("seed %d barrier %d: a model refit cold (fits %v)", seed, b+1, bf)
				}
			}
		}
		for b, bf := range coldFits {
			for _, w := range bf {
				if w {
					t.Fatalf("seed %d barrier %d: ColdStart run warm-started", seed, b+1)
				}
			}
		}
	}
	if warmN != coldN {
		t.Fatalf("verified %d claims warm vs %d cold", warmN, coldN)
	}
	t.Logf("total: crowd s/claim warm %.2f cold %.2f, mean accuracy warm %.4f cold %.4f",
		warmS/float64(warmN), coldS/float64(coldN), warmAcc, coldAcc)
	if d := math.Abs(warmS-coldS) / coldS; d > 0.03 {
		t.Errorf("total crowd seconds warm %.1f vs cold %.1f (%.1f%% apart, want <= 3%%)", warmS, coldS, 100*d)
	}
	if math.Abs(warmAcc-coldAcc) > 0.01 {
		t.Errorf("mean accuracy warm %.4f vs cold %.4f", warmAcc, coldAcc)
	}
}

// cutoffParent holds warmGrowthRun's figures under DefaultConfig, seeds 1-8,
// as measured at the commit before the classifier's gradient cutoff rose
// from 1e-4 to 1e-3 (same harness, linux/amd64): total crowd seconds and
// accuracy of each seed's 60-claim draft.
var cutoffParent = [8]struct{ seconds, accuracy float64 }{
	{21002.674758097397, 1},
	{22957.093201908887, 1},
	{20576.765790477708, 1},
	{29113.33504217752, 1},
	{28610.31109058649, 1},
	{21565.576413860203, 1},
	{30374.317933688642, 1},
	{20188.59671858039, 1},
}

// TestGradCutoffQualityLock is the engine-level quality lock of the
// classifier's gradient cutoff: over the eight seeds of
// TestWarmGrowthQualityLock, default runs ask the crowd for the same total
// time (within 3%) as the runs measured before the cutoff rose, and their
// mean accuracy is at most 0.01 below. As there, the lock is on the totals
// because single runs swing by several percent either way.
func TestGradCutoffQualityLock(t *testing.T) {
	var gotS, wantS, gotAcc, wantAcc float64
	for i, parent := range cutoffParent {
		seed := int64(i + 1)
		res, acc, _ := warmGrowthRun(t, seed, DefaultConfig())
		n := float64(len(res.Outcomes))
		t.Logf("seed %d: crowd s/claim %.2f (before %.2f), accuracy %.4f (before %.4f)",
			seed, res.Seconds/n, parent.seconds/n, acc, parent.accuracy)
		gotS += res.Seconds
		wantS += parent.seconds
		gotAcc += acc / float64(len(cutoffParent))
		wantAcc += parent.accuracy / float64(len(cutoffParent))
	}
	t.Logf("total crowd seconds %.1f (before %.1f), mean accuracy %.4f (before %.4f)", gotS, wantS, gotAcc, wantAcc)
	if d := math.Abs(gotS-wantS) / wantS; d > 0.03 {
		t.Errorf("total crowd seconds %.1f vs %.1f before the cutoff change (%.1f%% apart, want <= 3%%)", gotS, wantS, 100*d)
	}
	if gotAcc < wantAcc-0.01 {
		t.Errorf("mean accuracy %.4f, before the cutoff change %.4f", gotAcc, wantAcc)
	}
}

// TestTrainKeepsModelOfUnlabelledKind pins what train does with a property
// kind that has no labels in the pool: it fits nothing and keeps the
// previous model untouched — for a run, the verifier's archive model.
func TestTrainKeepsModelOfUnlabelledKind(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if _, err := e.train(w.Document.Claims, 2, nil, false); err != nil {
		t.Fatal(err)
	}
	formulaModel := e.models[PropFormula]
	labels := append([]string(nil), formulaModel.Labels()...)
	trainedOn := formulaModel.TrainedOn()
	var pb textproc.SparseBuilder
	pb.Add(0, 1)
	pb.Add(3, 0.5)
	probe := pb.Build()
	probs := formulaModel.Probs(probe)

	// The same claims without formula annotations: the formula kind has
	// nothing to learn from at this barrier.
	var noFormula []*claims.Claim
	for _, c := range w.Document.Claims[:20] {
		cp := *c
		truth := *c.Truth
		truth.Formula = ""
		cp.Truth = &truth
		noFormula = append(noFormula, &cp)
	}
	fits, err := e.train(noFormula, 2, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 3 {
		t.Errorf("train fitted %d models, want the 3 labelled kinds", len(fits))
	}
	if e.models[PropFormula] != formulaModel ||
		!reflect.DeepEqual(formulaModel.Labels(), labels) ||
		formulaModel.TrainedOn() != trainedOn ||
		!reflect.DeepEqual(formulaModel.Probs(probe), probs) {
		t.Error("the formula model changed although the pool held no formula label")
	}
	if got := e.models[PropRelation].TrainedOn(); got != 20 {
		t.Errorf("relation model TrainedOn = %d, want 20", got)
	}

	// On a fresh engine the unlabelled kind simply stays untrained.
	fresh, _ := buildEngine(t, tinyWorld())
	if _, err := fresh.train(noFormula, 2, nil, false); err != nil {
		t.Fatal(err)
	}
	if n := fresh.models[PropFormula].NumLabels(); n != 0 {
		t.Errorf("fresh engine formula model has %d labels, want untrained", n)
	}
}
