package classifier

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/repro/scrutinizer/internal/textproc"
)

// benchSet builds a training set with the label/feature shape of the
// paper-scale relation classifier: hundreds of labels, sparse features.
func benchSet(nExamples, nLabels, nnz int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, nExamples)
	for i := range out {
		label := rng.Intn(nLabels)
		f := textproc.Vector{label: 1} // separable core signal
		for j := 0; j < nnz; j++ {
			f[nLabels+rng.Intn(2000)] = rng.Float64()
		}
		out[i] = Example{Features: f.Sparse(), Label: fmt.Sprintf("label-%d", label)}
	}
	return out
}

func BenchmarkTrain500x200(b *testing.B) {
	set := benchSet(500, 200, 40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Config{Epochs: 5, Seed: 1})
		if err := c.Train(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmRetrain500x200 measures the per-batch retrain cost when the
// label vocabulary is stable and Train takes the warm-start path — the
// steady-state cost of Algorithm 1 line 20.
func BenchmarkWarmRetrain500x200(b *testing.B) {
	set := benchSet(500, 200, 40, 1)
	c := New(Config{Epochs: 5, Seed: 1})
	if err := c.Train(set); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Train(set); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !c.WarmStarted() {
		b.Fatal("expected warm-start retrains")
	}
}

func BenchmarkPredictTopK(b *testing.B) {
	set := benchSet(500, 200, 40, 2)
	c := New(Config{Epochs: 5, Seed: 1})
	if err := c.Train(set); err != nil {
		b.Fatal(err)
	}
	f := set[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TopK(f, 10)
	}
}

func BenchmarkEntropy(b *testing.B) {
	set := benchSet(300, 100, 40, 3)
	c := New(Config{Epochs: 4, Seed: 1})
	if err := c.Train(set); err != nil {
		b.Fatal(err)
	}
	f := set[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Entropy(f)
	}
}

// BenchmarkRetrainLabelGrowth replays the retrain sequence of one
// paper-scale run: batches of 100 examples join an append-only pool whose
// label count grows every round (the vocabulary reaches ~300 labels over
// eight barriers, near the ~400 of the largest paper-scale model), and the
// model retrains on the whole pool after each batch. Only the first fit is
// cold; every later round takes the warm growth path, so a slide back to
// cold refits shows up as about 3x ns/op.
func BenchmarkRetrainLabelGrowth(b *testing.B) {
	pool := labelGrowthPool()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Config{Epochs: 6, Seed: 1})
		for end := 100; end <= len(pool); end += 100 {
			if err := c.Train(pool[:end]); err != nil {
				b.Fatal(err)
			}
		}
		if !c.WarmStarted() {
			b.Fatal("expected warm-start retrains over a growing vocabulary")
		}
	}
}

// labelGrowthPool is the retrain sequence of BenchmarkRetrainLabelGrowth:
// eight batches of 100 examples whose label count grows every batch, to
// ~300 labels.
func labelGrowthPool() []Example {
	var pool []Example
	for r := 0; r < 8; r++ {
		pool = append(pool, benchSet(100, 100+45*r, 40, int64(r+1))...)
	}
	return pool
}
