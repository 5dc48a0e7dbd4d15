package classifier

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/repro/scrutinizer/internal/stats"
	"github.com/repro/scrutinizer/internal/textproc"
)

// vec builds a sparse feature vector from index -> weight pairs.
func vec(m map[int]float64) textproc.Sparse {
	var b textproc.SparseBuilder
	for i, x := range m {
		b.Add(i, x)
	}
	return b.Build()
}

// rowsOf copies a row table: nil for a feature without a row, else a
// copy of its weights.
func rowsOf(table [][]float64) [][]float64 {
	out := make([][]float64, len(table))
	for fi, row := range table {
		out[fi] = slices.Clone(row)
	}
	return out
}

// accsOf copies c's accumulators: nil for a feature without a row, else
// a copy of its row's accumulators.
func accsOf(c *Classifier) [][]float64 {
	out := make([][]float64, len(c.rows))
	for fi, row := range c.rows {
		if row != nil {
			out[fi] = slices.Clone(acc(row, c.stride))
		}
	}
	return out
}

// sameRows fails unless two row tables hold rows for the same features,
// equal bit for bit.
func sameRows(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, want %d", what, len(got), len(want))
	}
	for fi := range want {
		if (got[fi] == nil) != (want[fi] == nil) || len(got[fi]) != len(want[fi]) {
			t.Fatalf("%s: row %d holds %d values, want %d", what, fi, len(got[fi]), len(want[fi]))
		}
		sameScores(t, fmt.Sprintf("%s row %d", what, fi), got[fi], want[fi])
	}
}

// separableSet builds a linearly separable 3-class problem on sparse
// features: class i fires feature i strongly plus noise features.
func separableSet(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"relA", "relB", "relC"}
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		class := i % 3
		f := map[int]float64{class: 1.0}
		// noise
		f[3+rng.Intn(5)] = rng.Float64() * 0.3
		out = append(out, Example{Features: vec(f), Label: labels[class]})
	}
	return out
}

func TestTrainPredictSeparable(t *testing.T) {
	c := New(Config{Seed: 1})
	train := separableSet(90, 7)
	if err := c.Train(train); err != nil {
		t.Fatal(err)
	}
	test := separableSet(30, 99)
	if acc := c.Accuracy(test); acc < 0.95 {
		t.Errorf("accuracy on separable data = %g, want >= 0.95", acc)
	}
	if c.NumLabels() != 3 || c.TrainedOn() != 90 {
		t.Errorf("NumLabels=%d TrainedOn=%d", c.NumLabels(), c.TrainedOn())
	}
}

func TestTrainErrors(t *testing.T) {
	c := New(Config{})
	if err := c.Train(nil); err == nil {
		t.Error("empty training set accepted")
	}
	if err := c.Train([]Example{{Features: vec(map[int]float64{0: 1})}}); err == nil {
		t.Error("empty label accepted")
	}
}

func TestUntrainedBehaviour(t *testing.T) {
	c := New(Config{})
	f := vec(map[int]float64{0: 1})
	if c.Probs(f) != nil {
		t.Error("untrained Probs should be nil")
	}
	if _, _, ok := c.Predict(f); ok {
		t.Error("untrained Predict should report not-ok")
	}
	if got := c.Entropy(f); got != 1 {
		t.Errorf("untrained Entropy = %g, want 1", got)
	}
	if got := c.ProbOf(f, "x"); got != 0 {
		t.Errorf("untrained ProbOf = %g", got)
	}
	if c.TopK(f, 3) != nil {
		t.Error("untrained TopK should be nil")
	}
	if got := c.Accuracy(nil); got != 0 {
		t.Errorf("empty accuracy = %g", got)
	}
}

func TestProbsSumToOne(t *testing.T) {
	c := New(Config{Seed: 2})
	if err := c.Train(separableSet(60, 3)); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		f := vec(map[int]float64{trial % 8: 1})
		probs := c.Probs(f)
		var s float64
		for _, p := range probs {
			if p < 0 || p > 1 {
				t.Fatalf("prob out of range: %g", p)
			}
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("probs sum to %g", s)
		}
	}
}

func TestTopKOrderingAndBounds(t *testing.T) {
	c := New(Config{Seed: 4})
	if err := c.Train(separableSet(60, 5)); err != nil {
		t.Fatal(err)
	}
	f := vec(map[int]float64{0: 1})
	top := c.TopK(f, 2)
	if len(top) != 2 {
		t.Fatalf("TopK(2) = %v", top)
	}
	if top[0].Prob < top[1].Prob {
		t.Error("TopK not sorted descending")
	}
	if top[0].Label != "relA" {
		t.Errorf("top label = %q, want relA", top[0].Label)
	}
	if got := c.TopK(f, 100); len(got) != 3 {
		t.Errorf("TopK beyond vocab = %d entries", len(got))
	}
	if c.TopK(f, 0) != nil {
		t.Error("TopK(0) should be nil")
	}
}

// TestTopKMatchesFullSort cross-checks the partial-selection top-k against
// a straightforward ranking of the full Probs output.
func TestTopKMatchesFullSort(t *testing.T) {
	c := New(Config{Seed: 13})
	set := make([]Example, 0, 200)
	labels := make([]string, 17)
	for i := range labels {
		labels[i] = string(rune('a' + i))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		class := i % len(labels)
		set = append(set, Example{
			Features: vec(map[int]float64{class: 1, 20 + rng.Intn(9): 0.4}),
			Label:    labels[class],
		})
	}
	if err := c.Train(set); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		f := vec(map[int]float64{trial: 1, 21: 0.2})
		probs := c.Probs(f)
		for _, k := range []int{1, 3, 5, len(labels), len(labels) + 5} {
			top := c.TopK(f, k)
			want := k
			if want > len(labels) {
				want = len(labels)
			}
			if len(top) != want {
				t.Fatalf("TopK(%d) returned %d entries", k, len(top))
			}
			for i, p := range top {
				// Each entry's probability must match Probs for its label,
				// and ordering must be non-increasing with lexicographic
				// tie-break.
				li := -1
				for j, l := range c.Labels() {
					if l == p.Label {
						li = j
					}
				}
				if li < 0 || probs[li] != p.Prob {
					t.Fatalf("TopK entry %v disagrees with Probs", p)
				}
				if i > 0 {
					prev := top[i-1]
					if prev.Prob < p.Prob || (prev.Prob == p.Prob && prev.Label > p.Label) {
						t.Fatalf("TopK out of order at %d: %v", i, top)
					}
				}
			}
		}
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	// Two identical classes -> equal probabilities; tie must break
	// lexicographically.
	c := New(Config{Seed: 6, Epochs: 1})
	examples := []Example{
		{Features: vec(map[int]float64{0: 1}), Label: "zeta"},
		{Features: vec(map[int]float64{0: 1}), Label: "alpha"},
	}
	if err := c.Train(examples); err != nil {
		t.Fatal(err)
	}
	top := c.TopK(vec(map[int]float64{1: 1}), 2) // feature unseen -> near-uniform
	if math.Abs(top[0].Prob-top[1].Prob) < 1e-6 && top[0].Label != "alpha" {
		t.Errorf("tie should break to alpha, got %v", top)
	}
}

func TestEntropyDropsWithTraining(t *testing.T) {
	small := New(Config{Seed: 1, Epochs: 2})
	if err := small.Train(separableSet(6, 1)); err != nil {
		t.Fatal(err)
	}
	big := New(Config{Seed: 1})
	if err := big.Train(separableSet(300, 1)); err != nil {
		t.Fatal(err)
	}
	f := vec(map[int]float64{0: 1})
	if big.Entropy(f) >= small.Entropy(f) {
		t.Errorf("entropy should drop with more training: small=%g big=%g",
			small.Entropy(f), big.Entropy(f))
	}
}

func TestProbOf(t *testing.T) {
	c := New(Config{Seed: 3})
	if err := c.Train(separableSet(60, 2)); err != nil {
		t.Fatal(err)
	}
	f := vec(map[int]float64{0: 1})
	if p := c.ProbOf(f, "relA"); p < 0.5 {
		t.Errorf("ProbOf(relA) = %g, want > 0.5", p)
	}
	if p := c.ProbOf(f, "unknown"); p != 0 {
		t.Errorf("ProbOf(unknown) = %g", p)
	}
}

func TestTopKAccuracy(t *testing.T) {
	c := New(Config{Seed: 5})
	if err := c.Train(separableSet(90, 11)); err != nil {
		t.Fatal(err)
	}
	test := separableSet(30, 12)
	a1 := c.TopKAccuracy(test, 1)
	a3 := c.TopKAccuracy(test, 3)
	if a3 < a1 {
		t.Errorf("top-3 accuracy %g < top-1 %g", a3, a1)
	}
	if a3 != 1 {
		t.Errorf("top-3 over 3 classes must be 1, got %g", a3)
	}
	if got := c.TopKAccuracy(nil, 1); got != 0 {
		t.Errorf("empty TopKAccuracy = %g", got)
	}
}

func TestRetrainRebuildsVocabulary(t *testing.T) {
	c := New(Config{Seed: 1, Epochs: 3})
	if err := c.Train([]Example{
		{Features: vec(map[int]float64{0: 1}), Label: "old1"},
		{Features: vec(map[int]float64{1: 1}), Label: "old2"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Train([]Example{
		{Features: vec(map[int]float64{0: 1}), Label: "new1"},
		{Features: vec(map[int]float64{1: 1}), Label: "new2"},
	}); err != nil {
		t.Fatal(err)
	}
	if c.WarmStarted() {
		t.Error("vocabulary change must force a cold retrain")
	}
	for _, l := range c.Labels() {
		if l == "old1" || l == "old2" {
			t.Errorf("stale label %q survived retrain", l)
		}
	}
	if c.NumLabels() != 2 {
		t.Errorf("NumLabels = %d", c.NumLabels())
	}
}

func TestTrainingDeterministic(t *testing.T) {
	train := separableSet(60, 1)
	f := vec(map[int]float64{0: 1, 4: 0.2})
	c1 := New(Config{Seed: 9})
	c2 := New(Config{Seed: 9})
	if err := c1.Train(train); err != nil {
		t.Fatal(err)
	}
	if err := c2.Train(train); err != nil {
		t.Fatal(err)
	}
	p1, p2 := c1.Probs(f), c2.Probs(f)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("training not deterministic: %v vs %v", p1, p2)
		}
	}
	// The same holds across a warm-started retrain sequence.
	if err := c1.Train(train); err != nil {
		t.Fatal(err)
	}
	if err := c2.Train(train); err != nil {
		t.Fatal(err)
	}
	if !c1.WarmStarted() || !c2.WarmStarted() {
		t.Fatal("identical vocabulary should warm start")
	}
	p1, p2 = c1.Probs(f), c2.Probs(f)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("warm retrain not deterministic: %v vs %v", p1, p2)
		}
	}
}

// TestWarmStartMatchesScratch is the warm-start equivalence check: growing
// the training set batch by batch with warm-started retrains must land on
// the same top-k predictions (within a probability tolerance) as one
// from-scratch fit of the final set, on a fixed seed, under each kernel
// choice.
func TestWarmStartMatchesScratch(t *testing.T) {
	underEachKernel(t, func(t *testing.T) {
		full := separableSet(240, 17)

		warm := New(Config{Seed: 3, Epochs: 6})
		// Batch growth: 120, 180, then the full 240 — the label vocabulary is
		// complete from the first batch, so the later rounds take the warm path.
		if err := warm.Train(full[:120]); err != nil {
			t.Fatal(err)
		}
		if warm.WarmStarted() {
			t.Error("first fit cannot be warm")
		}
		for _, cut := range []int{180, 240} {
			if err := warm.Train(full[:cut]); err != nil {
				t.Fatal(err)
			}
			if !warm.WarmStarted() {
				t.Fatalf("retrain at %d examples should warm start", cut)
			}
		}

		scratch := New(Config{Seed: 3, Epochs: 6, ColdStart: true})
		if err := scratch.Train(full); err != nil {
			t.Fatal(err)
		}
		if scratch.WarmStarted() {
			t.Error("ColdStart config must never warm start")
		}

		test := separableSet(60, 23)
		for _, ex := range test {
			tw := warm.TopK(ex.Features, 3)
			ts := scratch.TopK(ex.Features, 3)
			if len(tw) != len(ts) {
				t.Fatalf("top-k lengths differ: %d vs %d", len(tw), len(ts))
			}
			// The confident prediction must be identical; the tail of the list
			// may permute only among labels whose probabilities agree within
			// the tolerance (near-ties deep in the softmax tail).
			if tw[0].Label != ts[0].Label {
				t.Fatalf("top-1 diverged: warm %v vs scratch %v", tw, ts)
			}
			byLabel := make(map[string]float64, len(ts))
			for _, p := range ts {
				byLabel[p.Label] = p.Prob
			}
			for i, p := range tw {
				sp, ok := byLabel[p.Label]
				if !ok {
					t.Fatalf("label %q in warm top-k but not scratch: %v vs %v", p.Label, tw, ts)
				}
				if math.Abs(p.Prob-sp) > 0.15 {
					t.Fatalf("prob of %q diverged beyond tolerance: warm %v vs scratch %v", p.Label, tw, ts)
				}
				if math.Abs(p.Prob-ts[i].Prob) > 0.15 {
					t.Fatalf("rank-%d prob diverged beyond tolerance: warm %v vs scratch %v", i, tw, ts)
				}
			}
		}
		if acc := warm.Accuracy(test); acc < 0.95 {
			t.Errorf("warm-started accuracy = %g, want >= 0.95", acc)
		}
	})
}

// TestWarmStartGrowsFeatureSpace checks that a warm retrain tolerates new
// feature indexes (the row table grows in place).
func TestWarmStartGrowsFeatureSpace(t *testing.T) {
	c := New(Config{Seed: 2, Epochs: 4})
	if err := c.Train([]Example{
		{Features: vec(map[int]float64{0: 1}), Label: "a"},
		{Features: vec(map[int]float64{1: 1}), Label: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Train([]Example{
		{Features: vec(map[int]float64{0: 1, 50: 0.5}), Label: "a"},
		{Features: vec(map[int]float64{1: 1, 51: 0.5}), Label: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if !c.WarmStarted() {
		t.Error("same vocabulary with new features should still warm start")
	}
	if got, _, ok := c.Predict(vec(map[int]float64{0: 1, 50: 0.5})); !ok || got != "a" {
		t.Errorf("Predict after feature growth = %q, %v", got, ok)
	}
	// Scoring a vector with indexes beyond the trained width must not
	// panic and must ignore the unknown features.
	if got, _, ok := c.Predict(vec(map[int]float64{0: 1, 9999: 3})); !ok || got != "a" {
		t.Errorf("Predict with out-of-range feature = %q, %v", got, ok)
	}
}

func TestAccuracyCountsUnknownLabelsAsMisses(t *testing.T) {
	c := New(Config{Seed: 1, Epochs: 2})
	if err := c.Train(separableSet(30, 1)); err != nil {
		t.Fatal(err)
	}
	test := []Example{{Features: vec(map[int]float64{0: 1}), Label: "never-seen-label"}}
	if got := c.Accuracy(test); got != 0 {
		t.Errorf("unknown label accuracy = %g, want 0", got)
	}
}

// TestEntropyMatchesReference checks the fused softmax-entropy against the
// direct -Σ p·ln p computation of package stats.
func TestEntropyMatchesReference(t *testing.T) {
	c := New(Config{Seed: 8})
	if err := c.Train(separableSet(90, 21)); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		f := vec(map[int]float64{trial % 8: 1, 3 + trial%5: 0.4})
		got := c.Entropy(f)
		want := stats.Entropy(c.Probs(f))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("fused entropy %g != reference %g", got, want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Epochs != 12 || c.LearningRate != 0.5 || c.L2 != 1e-4 {
		t.Errorf("defaults = %+v", c)
	}
	if c.WarmStartEpochs != 4 {
		t.Errorf("WarmStartEpochs default = %d, want Epochs/3 = 4", c.WarmStartEpochs)
	}
	c = Config{L2: -1}.withDefaults()
	if c.L2 != 0 {
		t.Errorf("negative L2 should clamp to 0, got %g", c.L2)
	}
	c = Config{Epochs: 3}.withDefaults()
	if c.WarmStartEpochs != 2 {
		t.Errorf("WarmStartEpochs floor = %d, want 2", c.WarmStartEpochs)
	}
	// A warm retrain must never default to more passes than a cold fit.
	c = Config{Epochs: 1}.withDefaults()
	if c.WarmStartEpochs != 1 {
		t.Errorf("WarmStartEpochs for Epochs=1 = %d, want 1", c.WarmStartEpochs)
	}
}

// modelView is what another model may observe of a classifier: its
// vocabulary, its label index and its distributions over a probe set.
type modelView struct {
	labels []string
	idx    map[string]int
	probs  [][]float64
}

func viewOf(c *Classifier, probe []textproc.Sparse) modelView {
	v := modelView{labels: slices.Clone(c.Labels()), idx: maps.Clone(c.labelIdx)}
	for _, f := range probe {
		v.probs = append(v.probs, c.Probs(f))
	}
	return v
}

// mustSameView fails unless two views are bit-identical.
func mustSameView(t *testing.T, what string, want, got modelView) {
	t.Helper()
	if !reflect.DeepEqual(want.labels, got.labels) || !reflect.DeepEqual(want.idx, got.idx) {
		t.Fatalf("%s: vocabulary %v/%v, want %v/%v", what, got.labels, got.idx, want.labels, want.idx)
	}
	for i := range want.probs {
		if len(want.probs[i]) != len(got.probs[i]) {
			t.Fatalf("%s: probe %d has %d probabilities, want %d", what, i, len(got.probs[i]), len(want.probs[i]))
		}
		for j, p := range want.probs[i] {
			if math.Float64bits(p) != math.Float64bits(got.probs[i][j]) {
				t.Fatalf("%s: probe %d class %d prob %v, want %v", what, i, j, got.probs[i][j], p)
			}
		}
	}
}

// cloneFits are the five ways a Train call can meet a clone's shared
// buffers, each built on top of the 5-label, 16-wide base pool: a cold
// refit (a known label vanished), a warm fit that adds labels beyond the
// class stride, a warm fit that adds a label into a spare column of the
// stride, a warm fit that only widens the feature space, and a warm fit
// with nothing new.
func cloneFits(base []Example) []cloneFit {
	rng := rand.New(rand.NewSource(17))
	var cold []Example
	for _, ex := range randExamples(rng, 60, 6, 16) {
		if ex.Label != "label00" {
			cold = append(cold, ex)
		}
	}
	fits := []cloneFit{
		{"cold", nil, cold, false, false, false, false},
		{"warm new labels", nil, append(slices.Clone(base), randExamples(rng, 30, 7, 16)...), true, true, false, false},
		{"warm wider features", nil, append(slices.Clone(base), randExamples(rng, 30, 5, 40)...), true, false, true, false},
		{"warm nothing new", nil, append(slices.Clone(base), base[:20]...), true, false, false, false},
	}
	// A sixth label widens the stride from 5 to 7 columns, so the seventh
	// fits the spare one.
	grown := append(slices.Clone(base), randExamples(rng, 30, 6, 16)...)
	spare := append(slices.Clone(grown), randExamples(rng, 30, 7, 16)...)
	return append(fits, cloneFit{"warm new labels in spare columns", grown, spare, true, true, false, true})
}

// cloneFit is one retraining set and the shape of fit it must produce
// (newLabels, wider and spare apply to warm fits). grown, when set, is a
// warm growth trained after the base pool and before cloning; spare means
// the new labels fit the class stride.
type cloneFit struct {
	name                          string
	grown, set                    []Example
	warm, newLabels, wider, spare bool
}

// trainAll trains m on each set in turn.
func trainAll(t *testing.T, m *Classifier, sets ...[]Example) {
	t.Helper()
	for _, set := range sets {
		if set == nil {
			continue
		}
		if err := m.Train(set); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloneIndependence pins the copy-on-write contract. A fresh clone
// scores bit-identically to its parent. Then, for each of the five kinds
// of fit, the parent trains and then the clone trains; after each fit the
// other model's Labels, labelIdx and Probs are bit-identical to before.
// Both fits must also equal the same fit of a model nobody cloned, which
// trains in place.
func TestCloneIndependence(t *testing.T) {
	cfg := Config{Seed: 3, Epochs: 4}
	base := randExamples(rand.New(rand.NewSource(11)), 60, 5, 16)
	probe := randFeatures(rand.New(rand.NewSource(42)), 20, 40)
	for _, fit := range cloneFits(base) {
		t.Run(fit.name, func(t *testing.T) {
			parent := New(cfg)
			trainAll(t, parent, base, fit.grown)
			dim, nL, stride := len(parent.rows), parent.NumLabels(), parent.stride
			clone := parent.Clone()
			if clone.TrainedOn() != parent.TrainedOn() || clone.NumLabels() != nL {
				t.Fatalf("clone metadata: TrainedOn=%d/%d NumLabels=%d/%d",
					clone.TrainedOn(), parent.TrainedOn(), clone.NumLabels(), nL)
			}
			mustSameView(t, "fresh clone", viewOf(parent, probe), viewOf(clone, probe))

			ref := New(cfg)
			trainAll(t, ref, base, fit.grown, fit.set)
			if ref.WarmStarted() != fit.warm ||
				fit.warm && ((ref.NumLabels() != nL) != fit.newLabels || (len(ref.rows) != dim) != fit.wider ||
					fit.newLabels && (ref.stride == stride) != fit.spare) {
				t.Fatalf("fit shape: warm %v, labels %d -> %d, dim %d -> %d, stride %d -> %d",
					ref.WarmStarted(), nL, ref.NumLabels(), dim, len(ref.rows), stride, ref.stride)
			}
			want := viewOf(ref, probe)

			before := viewOf(clone, probe)
			if err := parent.Train(fit.set); err != nil {
				t.Fatal(err)
			}
			mustSameView(t, "clone after the parent's fit", before, viewOf(clone, probe))
			mustSameView(t, "parent fit vs unshared fit", want, viewOf(parent, probe))

			before = viewOf(parent, probe)
			if err := clone.Train(fit.set); err != nil {
				t.Fatal(err)
			}
			mustSameView(t, "parent after the clone's fit", before, viewOf(parent, probe))
			mustSameView(t, "clone fit vs unshared fit", want, viewOf(clone, probe))
		})
	}
}

// TestCloneConcurrentTraining: three clones of one parent train
// concurrently while the parent itself retrains and a fourth clone
// scores; each ends bit-identical to the same fit run sequentially on a
// model nobody cloned. Under -race this is the check that copy-on-write
// never writes a shared buffer.
func TestCloneConcurrentTraining(t *testing.T) {
	cfg := Config{Seed: 5, Epochs: 4}
	base := randExamples(rand.New(rand.NewSource(13)), 60, 5, 16)
	probe := randFeatures(rand.New(rand.NewSource(7)), 20, 40)
	rng := rand.New(rand.NewSource(19))
	// The parent grows to 6 labels under a 7-column stride.
	grown := append(slices.Clone(base), randExamples(rng, 30, 6, 16)...)
	spare := append(slices.Clone(grown), randExamples(rng, 30, 7, 16)...)
	// Two clones add a seventh label, a different one each, into the same
	// spare column of the shared matrices, and into the same spare slot
	// of the shared vocabulary: a fit that skipped either copy would write
	// both into one buffer.
	renamed := slices.Clone(spare)
	for i := range renamed {
		if renamed[i].Label >= "label06" {
			renamed[i].Label = "other" + renamed[i].Label
		}
	}
	sets := [][]Example{
		spare,   // clone: new label in the spare column
		renamed, // clone: another new label in the same column
		append(slices.Clone(grown), randExamples(rng, 30, 9, 16)...), // clone: beyond the stride
		append(slices.Clone(grown), randExamples(rng, 30, 6, 40)...), // parent: wider features
	}

	want := make([]modelView, len(sets))
	for i, set := range sets {
		ref := New(cfg)
		trainAll(t, ref, base, grown, set)
		want[i] = viewOf(ref, probe)
	}

	parent := New(cfg)
	trainAll(t, parent, base, grown)
	if parent.stride <= parent.NumLabels() {
		t.Fatalf("stride %d leaves no spare column for %d labels", parent.stride, parent.NumLabels())
	}
	models := []*Classifier{parent.Clone(), parent.Clone(), parent.Clone(), parent}
	reader := parent.Clone()
	errs := make([]error, len(models))
	var wg sync.WaitGroup
	for i, m := range models {
		wg.Add(1)
		go func(i int, m *Classifier) {
			defer wg.Done()
			errs[i] = m.Train(sets[i])
		}(i, m)
	}
	// A fourth clone keeps scoring from the shared buffers meanwhile.
	for _, f := range probe {
		reader.TopK(f, 3)
		reader.Entropy(f)
	}
	wg.Wait()
	for i, m := range models {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		mustSameView(t, fmt.Sprintf("model %d", i), want[i], viewOf(m, probe))
	}
}

// TestCloneUntrained: cloning a cold model yields a usable cold model.
func TestCloneUntrained(t *testing.T) {
	c := New(Config{Seed: 1}).Clone()
	if c.NumLabels() != 0 {
		t.Fatal("clone of untrained model has labels")
	}
	if err := c.Train(separableSet(30, 2)); err != nil {
		t.Fatal(err)
	}
	ref := New(Config{Seed: 1})
	if err := ref.Train(separableSet(30, 2)); err != nil {
		t.Fatal(err)
	}
	f := separableSet(5, 77)[0].Features
	a, b := c.Probs(f), ref.Probs(f)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cold clone trains differently from a fresh model")
		}
	}
}

// growthPool builds an append-only training pool in the shape Algorithm 1
// accumulates: chunk r draws from the first labelsAt[r] labels, so every
// chunk after the first brings labels the model has never seen (and
// feature indexes beyond the previous width) while no label ever leaves.
// It returns the pool and the cumulative chunk ends.
func growthPool(seed int64, chunk int, labelsAt []int) ([]Example, []int) {
	rng := rand.New(rand.NewSource(seed))
	var pool []Example
	var ends []int
	for r, nL := range labelsAt {
		pool = append(pool, randExamples(rng, chunk, nL, 16+8*r)...)
		ends = append(ends, len(pool))
	}
	return pool, ends
}

// TestWarmStartLabelGrowth pins the growth path: a vocabulary that only
// gains labels warm-starts, the new label lands in the order a cold fit
// would give it, and it is learnt from zero weights in the warm passes.
func TestWarmStartLabelGrowth(t *testing.T) {
	ab := []Example{
		{Features: vec(map[int]float64{0: 1}), Label: "a"},
		{Features: vec(map[int]float64{1: 1}), Label: "b"},
		{Features: vec(map[int]float64{0: 1, 3: 0.2}), Label: "a"},
		{Features: vec(map[int]float64{1: 1, 3: 0.2}), Label: "b"},
	}
	abc := append(append([]Example(nil), ab...),
		Example{Features: vec(map[int]float64{2: 1}), Label: "c"},
		Example{Features: vec(map[int]float64{0: 1}), Label: "a"},
		Example{Features: vec(map[int]float64{2: 1, 7: 0.3}), Label: "c"},
		Example{Features: vec(map[int]float64{1: 1}), Label: "b"},
		Example{Features: vec(map[int]float64{2: 1, 3: 0.2}), Label: "c"},
	)

	c := New(Config{Seed: 4, Epochs: 6})
	if err := c.Train(ab); err != nil {
		t.Fatal(err)
	}
	oldW, oldG := rowsOf(c.rows), accsOf(c)
	oldBias := append([]float64(nil), c.bias...)

	// The re-layout alone keeps every known weight and accumulator in
	// place under the wider stride, zeroes everything new, spare columns
	// included, and carves no row for a feature that had none. It writes
	// in place, so it runs on a private model trained like c, never on a
	// clone sharing c's rows.
	relaid := New(Config{Seed: 4, Epochs: 6})
	if err := relaid.Train(ab); err != nil {
		t.Fatal(err)
	}
	relaid.addLabels(abc)
	relaid.grow(8)
	stride := relaid.stride
	if len(relaid.rows) != 8 || stride < 3 {
		t.Fatalf("re-layout shape: %d features, stride %d", len(relaid.rows), stride)
	}
	for fi, w := range relaid.rows {
		if fi >= len(oldW) || oldW[fi] == nil {
			if w != nil {
				t.Fatalf("re-layout carved a row for feature %d, which had none", fi)
			}
			continue
		}
		gsq := acc(w, stride)
		if len(w) != stride || cap(w) < 2*stride {
			t.Fatalf("row %d holds %d weights and capacity %d at stride %d", fi, len(w), cap(w), stride)
		}
		for cls := 0; cls < stride; cls++ {
			wantW, wantG := 0.0, 0.0
			if cls < 2 {
				wantW, wantG = oldW[fi][cls], oldG[fi][cls]
			}
			if w[cls] != wantW || gsq[cls] != wantG {
				t.Fatalf("row %d class %d = %g/%g after re-layout, want %g/%g", fi, cls, w[cls], gsq[cls], wantW, wantG)
			}
		}
	}
	if relaid.bias[0] != oldBias[0] || relaid.bias[1] != oldBias[1] || relaid.bias[2] != 0 || relaid.gsqB[2] != 0 {
		t.Fatalf("bias after re-layout = %v (gsqB %v), want %v then zero", relaid.bias, relaid.gsqB, oldBias)
	}

	if err := c.Train(abc); err != nil {
		t.Fatal(err)
	}
	if !c.WarmStarted() {
		t.Fatal("a vocabulary that only gained a label must warm start")
	}
	cold := New(Config{Seed: 4, Epochs: 6, ColdStart: true})
	if err := cold.Train(abc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Labels(), cold.Labels()) {
		t.Errorf("grown Labels() = %v, cold fit gives %v", c.Labels(), cold.Labels())
	}
	for i, l := range c.Labels() {
		if c.labelIdx[l] != i {
			t.Errorf("labelIdx[%q] = %d, want %d", l, c.labelIdx[l], i)
		}
	}
	for _, ex := range abc {
		if got, _, ok := c.Predict(ex.Features); !ok || got != ex.Label {
			t.Errorf("Predict(%v) = %q after growth, want %q", ex.Features, got, ex.Label)
		}
	}
}

// wideExamples builds n examples over labels label00..label(nL-1), in
// turn, each with the class feature and nnz random features below dim.
func wideExamples(rng *rand.Rand, n, nL, dim, nnz int) []Example {
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		f := map[int]float64{i % nL: 1}
		for len(f) < 1+nnz {
			f[rng.Intn(dim)] = rng.NormFloat64()
		}
		out = append(out, Example{Features: vec(f), Label: fmt.Sprintf("label%02d", i%nL)})
	}
	return out
}

// relabelled returns n examples that reuse the features of from, in turn,
// under labels label00..label(nL-1), so they touch no feature from lacks.
func relabelled(from []Example, n, nL int) []Example {
	out := make([]Example, n)
	for i := range out {
		out[i] = Example{Features: from[i%len(from)].Features, Label: fmt.Sprintf("label%02d", i%nL)}
	}
	return out
}

// TestWarmGrowthInSpareColumnsAllocatesNoMatrix: a warm fit whose new
// labels fit the class stride trains in the rows it already has, both
// after warm growth widened the stride and after a cold refit kept a wider
// model's stride (a run's first fit of its verifier's clone): no row
// moves, and the fit allocates less than a quarter of its rows' bytes, so
// a re-layout (every row anew) fails it.
func TestWarmGrowthInSpareColumnsAllocatesNoMatrix(t *testing.T) {
	const dim = 3000
	// fitInPlace runs fit and fails unless it trains warm into the rows
	// c already has, ending with labels labels.
	fitInPlace := func(t *testing.T, c *Classifier, fit func() error, labels int) {
		t.Helper()
		before := map[int]*float64{}
		for fi, row := range c.rows {
			if row != nil {
				before[fi] = &row[0]
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := fit(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		rowBytes := uint64(len(before) * 2 * c.stride * 8)
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= rowBytes/4 {
			t.Errorf("warm fit into spare columns allocated %d B; its %d rows hold %d B", got, len(before), rowBytes)
		}
		if !c.WarmStarted() || c.NumLabels() != labels || len(c.rows) != dim {
			t.Fatalf("fit shape: warm %v, %d labels, %d features", c.WarmStarted(), c.NumLabels(), len(c.rows))
		}
		for fi, row := range c.rows {
			if p, ok := before[fi]; !ok && row != nil || ok && &row[0] != p {
				t.Fatalf("row %d moved or appeared", fi)
			}
		}
	}
	// The widest feature is in every first fit, and later fits reuse
	// the first fit's features, so they carve no rows.
	widest := Example{Features: vec(map[int]float64{0: 1, dim - 1: 1}), Label: "label00"}

	t.Run("after warm growth", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		pool := append(wideExamples(rng, 40, 8, dim, 30), widest)
		c := New(Config{Seed: 2, Epochs: 2})
		trainAll(t, c, pool)
		pool = append(pool, relabelled(pool, 20, 10)...)
		trainAll(t, c, pool) // 8 -> 10 labels: the stride grows to 12
		pool = append(pool, relabelled(pool, 24, 12)...)
		fitInPlace(t, c, func() error { return c.Train(pool) }, 12) // 10 -> 12 labels
	})

	t.Run("appended after a cold refit", func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		verifier := New(Config{Seed: 2, Epochs: 2})
		trainAll(t, verifier, append(wideExamples(rng, 48, 12, dim, 30), widest))
		// Six of the verifier's twelve labels: a cold refit that keeps
		// the 12-column stride.
		run := verifier.Clone()
		pool := append(wideExamples(rng, 24, 6, dim, 30), widest)
		trainAll(t, run, pool)
		if run.WarmStarted() || run.stride != verifier.stride || run.stride != 12 {
			t.Fatalf("refit: warm %v, stride %d, want cold at the verifier's %d", run.WarmStarted(), run.stride, verifier.stride)
		}
		for _, nL := range []int{9, 12} {
			pool = append(pool, relabelled(pool, 2*nL, nL)...)
			fitInPlace(t, run, func() error { return run.TrainAppended(pool) }, nL)
		}
	})
}

// TestColdRefitKeepsStride: a cold refit lays the rows out at the stride
// of the model it replaces when its labels fit it, and at the label count
// when they do not. The stride never enters the arithmetic, so the
// refit scores bit-identically to a model laid out at its label count, its
// spare columns stay zero, and under copy-on-write the parent it was
// cloned from is untouched.
func TestColdRefitKeepsStride(t *testing.T) {
	cfg := Config{Seed: 7, Epochs: 4}
	rng := rand.New(rand.NewSource(23))
	probe := randFeatures(rand.New(rand.NewSource(29)), 20, 40)
	parent := New(cfg)
	trainAll(t, parent, randExamples(rng, 120, 12, 24))
	if parent.stride != 12 {
		t.Fatalf("a first fit lays out at stride %d, want the label count 12", parent.stride)
	}
	before := viewOf(parent, probe)

	// sameAsFresh fits a fresh model on set at c's round count (the
	// shuffle stream advances with it, and a clone inherits it) and
	// requires c to score bit-identically.
	sameAsFresh := func(t *testing.T, c *Classifier, set []Example) {
		t.Helper()
		ref := New(cfg)
		ref.rounds = c.rounds - 1
		trainAll(t, ref, set)
		if ref.stride != ref.NumLabels() {
			t.Fatalf("the fresh model's stride is %d, want its label count %d", ref.stride, ref.NumLabels())
		}
		mustSameView(t, "refit vs fresh fit", viewOf(ref, probe), viewOf(c, probe))
	}

	// Four of the parent's twelve labels, over wider features: cold.
	narrow := randExamples(rng, 40, 4, 32)
	clone := parent.Clone()
	trainAll(t, clone, narrow)
	if clone.WarmStarted() || clone.NumLabels() != 4 || clone.stride != 12 {
		t.Fatalf("refit shape: warm %v, %d labels, stride %d; want cold, 4 labels at stride 12",
			clone.WarmStarted(), clone.NumLabels(), clone.stride)
	}
	for fi, w := range clone.rows {
		if w == nil {
			continue
		}
		if len(w) != 12 || cap(w) < 24 {
			t.Fatalf("row %d holds %d weights and capacity %d at stride 12", fi, len(w), cap(w))
		}
		gsq := acc(w, 12)
		for cls := clone.NumLabels(); cls < clone.stride; cls++ {
			if w[cls] != 0 || gsq[cls] != 0 {
				t.Fatalf("spare column %d of row %d is nonzero", cls, fi)
			}
		}
	}
	sameAsFresh(t, clone, narrow)
	mustSameView(t, "parent after the clone's refit", before, viewOf(parent, probe))

	// Fifteen labels without label00, which the clone knows: cold again,
	// and wider than the kept stride, so laid out at the label count.
	var wide []Example
	for _, ex := range randExamples(rng, 80, 16, 24) {
		if ex.Label != "label00" {
			wide = append(wide, ex)
		}
	}
	trainAll(t, clone, wide)
	if clone.WarmStarted() || clone.NumLabels() != 15 || clone.stride != 15 {
		t.Fatalf("refit shape: warm %v, %d labels, stride %d; want cold at stride 15", clone.WarmStarted(), clone.NumLabels(), clone.stride)
	}
	sameAsFresh(t, clone, wide)
	mustSameView(t, "parent after the clone's second refit", before, viewOf(parent, probe))
}

// TestWarmStartLabelSwapRefitsCold: gaining one label while losing another
// is not growth — the model refits from scratch and the dropped label is
// gone.
func TestWarmStartLabelSwapRefitsCold(t *testing.T) {
	c := New(Config{Seed: 1, Epochs: 3})
	if err := c.Train([]Example{
		{Features: vec(map[int]float64{0: 1}), Label: "a"},
		{Features: vec(map[int]float64{1: 1}), Label: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Train([]Example{
		{Features: vec(map[int]float64{0: 1}), Label: "a"},
		{Features: vec(map[int]float64{2: 1}), Label: "c"},
	}); err != nil {
		t.Fatal(err)
	}
	if c.WarmStarted() {
		t.Error("a vanished label must force a cold retrain")
	}
	if want := []string{"a", "c"}; !reflect.DeepEqual(c.Labels(), want) {
		t.Errorf("Labels() = %v, want %v", c.Labels(), want)
	}
	if c.ProbOf(vec(map[int]float64{1: 1}), "b") != 0 {
		t.Error("stale label b still scored")
	}
	if len(c.bias) != 2 || c.stride != 2 {
		t.Errorf("stale class columns survived: len(bias) %d, stride %d", len(c.bias), c.stride)
	}
	for fi, row := range c.rows {
		if row != nil && (len(row) != 2 || cap(row) < 4) {
			t.Errorf("row %d holds %d weights and capacity %d at stride 2", fi, len(row), cap(row))
		}
	}
}

// TestWarmGrowthDeterministic: two models fed the same growth sequence
// stay bit-identical after every retrain — the property session replay
// and journal recovery rely on.
func TestWarmGrowthDeterministic(t *testing.T) {
	pool, ends := growthPool(21, 40, []int{3, 5, 8, 12})
	m1 := New(Config{Seed: 6, Epochs: 6})
	m2 := New(Config{Seed: 6, Epochs: 6})
	for r, end := range ends {
		for _, m := range []*Classifier{m1, m2} {
			if err := m.Train(pool[:end]); err != nil {
				t.Fatal(err)
			}
		}
		if warm := r > 0; m1.WarmStarted() != warm {
			t.Fatalf("round %d: WarmStarted = %v, want %v", r, m1.WarmStarted(), warm)
		}
		if !reflect.DeepEqual(m1.labels, m2.labels) || !reflect.DeepEqual(m1.rows, m2.rows) || !reflect.DeepEqual(accsOf(m1), accsOf(m2)) ||
			!reflect.DeepEqual(m1.bias, m2.bias) || !reflect.DeepEqual(m1.gsqB, m2.gsqB) {
			t.Fatalf("round %d: models fed the same growth sequence diverged", r)
		}
	}
	if m1.NumLabels() != 12 {
		t.Errorf("NumLabels = %d after growth to 12", m1.NumLabels())
	}
}

// featuresOf returns the distinct feature indexes the examples hold.
func featuresOf(examples []Example) map[int]bool {
	out := map[int]bool{}
	for _, ex := range examples {
		for k := 0; k < ex.Features.NNZ(); k++ {
			out[ex.Features.Index(k)] = true
		}
	}
	return out
}

// TestColdRefitHoldsPoolRows: a clone's cold refit on N examples holds
// rows for exactly their distinct features, all carved from the one slab
// the refit claimed, whatever its parent held; the parent keeps its own.
func TestColdRefitHoldsPoolRows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	parent := New(Config{Seed: 3, Epochs: 3})
	trainAll(t, parent, wideExamples(rng, 200, 12, 2000, 20))
	before := rowsOf(parent.rows)
	for _, n := range []int{1, 10, 60} {
		clone := parent.Clone()
		// Labels the parent lacks, so the fit is cold.
		pool := relabelled(wideExamples(rng, n, 4, 2000, 20), n, 4)
		for i := range pool {
			pool[i].Label = "refit-" + pool[i].Label
		}
		trainAll(t, clone, pool)
		if clone.WarmStarted() {
			t.Fatalf("%d examples: the refit warm-started", n)
		}
		want := featuresOf(pool)
		held := 0
		for fi, row := range clone.rows {
			if (row != nil) != want[fi] {
				t.Fatalf("%d examples: feature %d has a row %v, in the pool %v", n, fi, row != nil, want[fi])
			}
			if row != nil {
				held++
			}
		}
		if held != len(want) {
			t.Fatalf("%d examples: %d rows for %d features", n, held, len(want))
		}
		// One slab of exactly held rows: their weights lie side by side.
		lo, hi := ^uintptr(0), uintptr(0)
		for _, row := range clone.rows {
			if row != nil {
				p := reflect.ValueOf(row).Pointer()
				lo, hi = min(lo, p), max(hi, p)
			}
		}
		if span := uintptr((held - 1) * clone.stride * 8); hi-lo != span {
			t.Fatalf("%d examples: rows span %d bytes, want the %d of one slab", n, hi-lo, span)
		}
		sameRows(t, fmt.Sprintf("parent after a %d-example refit", n), parent.rows, before)
	}
}

// TestSharedFitCopiesOnlyTakenRows: a warm fit of a shared clone leaves
// its parent bit-identical, copies the row of every feature its pool
// holds, and keeps sharing the row of every feature it does not, which
// its steps never take.
func TestSharedFitCopiesOnlyTakenRows(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Two pools over the same six labels: the clone retrains on base
	// plus extra examples, never on aside, whose features lie in a range
	// of their own.
	base := wideExamples(rng, 60, 6, 500, 8)
	aside := wideExamples(rng, 30, 6, 500, 8)
	for i := range aside {
		f := map[int]float64{}
		for k := 0; k < aside[i].Features.NNZ(); k++ {
			f[1000+aside[i].Features.Index(k)] = aside[i].Features.Value(k)
		}
		aside[i].Features = vec(f)
	}
	parent := New(Config{Seed: 9, Epochs: 3})
	trainAll(t, parent, append(slices.Clone(base), aside...))
	probe := randFeatures(rand.New(rand.NewSource(5)), 20, 1500)
	wantView := viewOf(parent, probe)
	wantW, wantG := rowsOf(parent.rows), accsOf(parent)

	clone := parent.Clone()
	set := append(slices.Clone(base), wideExamples(rng, 20, 6, 500, 8)...)
	trainAll(t, clone, set)
	if !clone.WarmStarted() {
		t.Fatal("the clone's fit refit cold")
	}
	mustSameView(t, "parent after the clone's fit", wantView, viewOf(parent, probe))
	sameRows(t, "parent weights", parent.rows, wantW)
	sameRows(t, "parent accumulators", accsOf(parent), wantG)
	taken := featuresOf(set)
	for fi, row := range parent.rows {
		if row == nil {
			continue
		}
		if shared := &clone.rows[fi][0] == &row[0]; shared == taken[fi] {
			t.Fatalf("feature %d: shared %v, taken by the clone's fit %v", fi, shared, taken[fi])
		}
	}
}
