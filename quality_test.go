package scrutinizer

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/repro/scrutinizer/internal/crowd"
)

// replayParent holds what one run of the paper-scale workload gave for
// split seeds 1-3 before a run's barrier fits replay-sampled (linux/amd64):
// the crowd seconds and accuracy of verifying the held-out half of the
// paper-scale world in batches of 100 at parallelism 2, with a verifier
// trained on the other half (seeded with the split seed) and three
// 97%-accurate checkers of crowd seed 1.
var replayParent = [3]struct{ seconds, accuracy float64 }{
	{280563.0968501049, 1},
	{282508.6257218147, 1},
	{281238.77666588844, 1},
}

// paperSplit draws half of the document's claims, seeded, as the training
// archive; both halves keep document order.
func paperSplit(d *Document, seed int64) (train, held *Document) {
	inTrain := make([]bool, len(d.Claims))
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(d.Claims))[:len(d.Claims)/2] {
		inTrain[i] = true
	}
	train = &Document{Title: d.Title, Sections: d.Sections}
	held = &Document{Title: d.Title, Sections: d.Sections}
	for i, c := range d.Claims {
		if inTrain[i] {
			train.Claims = append(train.Claims, c)
		} else {
			held.Claims = append(held.Claims, c)
		}
	}
	return train, held
}

// TestReplayQualityLockPaperScale is the quality lock of replay-sampled
// barrier fits at the scale where they apply (a run's pool outgrows the
// replay sample from its fourth barrier on): over three splits, total
// crowd seconds stay within 1% of the figures measured with full passes,
// and no split loses accuracy.
func TestReplayQualityLockPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	w, err := GenerateWorld(PaperWorld())
	if err != nil {
		t.Fatal(err)
	}
	team, err := crowd.NewTeam("W", 3, 0.97, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got, want float64
	for i, parent := range replayParent {
		seed := int64(i + 1)
		train, held := paperSplit(w.Document, seed)
		v, err := NewVerifier(w.Corpus, train, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		run, err := v.StartRun(context.Background(), held)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 100, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		n := float64(len(res.Outcomes))
		t.Logf("split %d: crowd s/claim %.2f (full passes %.2f), accuracy %.4f (%.4f)",
			seed, res.Seconds/n, parent.seconds/n, res.Accuracy(), parent.accuracy)
		if res.Accuracy() < parent.accuracy {
			t.Errorf("split %d: accuracy %.4f, full passes %.4f", seed, res.Accuracy(), parent.accuracy)
		}
		got += res.Seconds
		want += parent.seconds
	}
	if d := math.Abs(got-want) / want; d > 0.01 {
		t.Errorf("total crowd seconds %.1f vs %.1f with full passes (%.2f%% apart, want <= 1%%)", got, want, 100*d)
	}
}
