package classifier

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/repro/scrutinizer/internal/textproc"
)

// randExamples builds a training set over nLabels classes with random sparse
// features up to width dim.
func randExamples(rng *rand.Rand, n, nLabels, dim int) []Example {
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		class := i % nLabels
		f := map[int]float64{class: 1.0}
		for j := 0; j < 1+rng.Intn(4); j++ {
			f[rng.Intn(dim)] = rng.NormFloat64()
		}
		out = append(out, Example{Features: vec(f), Label: fmt.Sprintf("label%02d", class)})
	}
	return out
}

// randFeatures builds scoring inputs, deliberately including empty vectors
// and indexes beyond the trained width.
func randFeatures(rng *rand.Rand, n, dim int) []textproc.Sparse {
	out := make([]textproc.Sparse, 0, n)
	for i := 0; i < n; i++ {
		f := map[int]float64{}
		for j, nnz := 0, rng.Intn(6); j < nnz; j++ {
			f[rng.Intn(2*dim)] = rng.NormFloat64() // half out of range
		}
		out = append(out, vec(f))
	}
	return out
}

// TestAnalyzeBatchMatchesSequential is the property test pinning the batch
// scorer bit-identical to N sequential TopK and Entropy calls, across random models,
// feature vectors, and top-k values (including k=0, k>numLabels, batches
// larger than the batchRows block, untrained models, and empty input).
func TestAnalyzeBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		nLabels := 1 + rng.Intn(9)
		dim := 4 + rng.Intn(24)
		c := New(Config{Seed: int64(trial), Epochs: 3})
		if err := c.Train(randExamples(rng, 10*nLabels, nLabels, dim)); err != nil {
			t.Fatal(err)
		}
		// Sizes straddle the batchRows block boundary.
		for _, n := range []int{0, 1, 7, batchRows, batchRows + 1, 3 * batchRows} {
			fs := randFeatures(rng, n, dim)
			for _, k := range []int{0, 1, 3, nLabels, nLabels + 5} {
				gotP, gotE := c.AnalyzeBatch(fs, k)
				if len(gotP) != n || len(gotE) != n {
					t.Fatalf("trial %d n=%d k=%d: batch lengths %d/%d", trial, n, k, len(gotP), len(gotE))
				}
				for i, f := range fs {
					wantP, wantE := c.TopK(f, k), c.Entropy(f)
					if gotE[i] != wantE {
						t.Fatalf("trial %d n=%d k=%d row %d: entropy %v != %v", trial, n, k, i, gotE[i], wantE)
					}
					if !reflect.DeepEqual(gotP[i], wantP) {
						t.Fatalf("trial %d n=%d k=%d row %d: preds %v != %v", trial, n, k, i, gotP[i], wantP)
					}
				}
			}
		}
	}
}

// refScores is the dense, row-at-a-time reference for scoreInto: it lays
// the model's rows out in one dense feature-major matrix, with zero rows
// for the features that have none, and returns bias plus, for every
// in-range nonzero in index order, its weight row times its value.
func refScores(c *Classifier, f textproc.Sparse) []float64 {
	nL, dim := len(c.labels), len(c.rows)
	w := make([]float64, dim*nL)
	for fi, row := range c.rows {
		if row != nil {
			copy(w[fi*nL:], row[:nL])
		}
	}
	s := append([]float64(nil), c.bias...)
	for k := 0; k < f.NNZ(); k++ {
		fi := f.Index(k)
		if fi >= dim {
			continue
		}
		for j := 0; j < nL; j++ {
			s[j] += float64(w[fi*nL+j] * f.Value(k))
		}
	}
	return s
}

// TestScoreIntoMatchesReference pins the four-rows-per-sweep scoring
// kernel, which skips the features without a row, bit-identical to the
// dense refScores: label counts 1-7, vectors with 0-9 nonzeros of either
// sign (every leftover count 0-3 after the blocks of four), with and
// without indexes at or above the trained width, over models where about
// half the features have no row and a third of the biases are the +0 of
// an untouched class, so the dense sums add -0 products to +0 scores.
func TestScoreIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for nLabels := 1; nLabels <= 7; nLabels++ {
		dim := 12 + rng.Intn(20)
		c := New(Config{Seed: int64(nLabels), Epochs: 2})
		if err := c.Train(randExamples(rng, 5*nLabels, nLabels, dim)); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, nLabels)
		var g gathered
		for trial := 0; trial < 200; trial++ {
			if trial%20 == 0 {
				// Dense random weights in about half the rows, so every
				// product of a present row counts.
				sl := newSlab(len(c.rows), c.stride)
				for fi := range c.rows {
					c.rows[fi] = nil
					if rng.Intn(2) == 0 {
						c.rows[fi] = sl.row()
						for j := 0; j < nLabels; j++ {
							c.rows[fi][j] = rng.NormFloat64()
						}
					}
				}
				for i := range c.bias {
					c.bias[i] = 0
					if rng.Intn(3) > 0 {
						c.bias[i] = rng.NormFloat64()
					}
				}
			}
			span := len(c.rows)
			if trial%2 == 1 {
				span = 2 * len(c.rows) // about half the indexes out of range
			}
			f := map[int]float64{}
			for nnz := trial / 2 % 10; len(f) < nnz; {
				f[rng.Intn(span)] = rng.NormFloat64()
			}
			sf := vec(f)
			c.scoreInto(sf, got, &g)
			want := refScores(c, sf)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("labels %d, %d nonzeros %v: class %d score %v, reference %v",
						nLabels, len(f), f, j, got[j], want[j])
				}
			}
		}
	}
}

func TestAnalyzeBatchUntrained(t *testing.T) {
	c := New(Config{})
	fs := randFeatures(rand.New(rand.NewSource(1)), 5, 8)
	preds, ents := c.AnalyzeBatch(fs, 3)
	if len(preds) != 5 || len(ents) != 5 {
		t.Fatalf("lengths %d/%d", len(preds), len(ents))
	}
	for i := range fs {
		if preds[i] != nil || ents[i] != 1 {
			t.Errorf("row %d: untrained batch should be (nil, 1), got (%v, %v)", i, preds[i], ents[i])
		}
	}
}

// TestAnalyzeBatchRowsIndependent checks the arena subslices are isolated:
// appending to one row's predictions must not clobber a neighbour.
func TestAnalyzeBatchRowsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(Config{Seed: 3, Epochs: 3})
	if err := c.Train(randExamples(rng, 40, 4, 12)); err != nil {
		t.Fatal(err)
	}
	fs := randFeatures(rng, 6, 12)
	preds, _ := c.AnalyzeBatch(fs, 2)
	want := make([][]Prediction, len(fs))
	for i, f := range fs {
		want[i] = c.TopK(f, 2)
	}
	for i := range preds {
		preds[i] = append(preds[i], Prediction{Label: "poison", Prob: -1})
	}
	for i := range preds {
		if !reflect.DeepEqual(preds[i][:len(preds[i])-1], want[i]) {
			t.Fatalf("row %d corrupted by append to sibling rows", i)
		}
	}
}
