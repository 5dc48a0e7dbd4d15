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

// vec builds a slice-backed feature vector from map-literal syntax.
func vec(m textproc.Vector) textproc.Sparse { return m.Sparse() }

// separableSet builds a linearly separable 3-class problem on sparse
// features: class i fires feature i strongly plus noise features.
func separableSet(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"relA", "relB", "relC"}
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		class := i % 3
		f := textproc.Vector{class: 1.0}
		// noise
		f[3+rng.Intn(5)] = rng.Float64() * 0.3
		out = append(out, Example{Features: f.Sparse(), Label: labels[class]})
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
	if err := c.Train([]Example{{Features: vec(textproc.Vector{0: 1})}}); err == nil {
		t.Error("empty label accepted")
	}
}

func TestUntrainedBehaviour(t *testing.T) {
	c := New(Config{})
	f := vec(textproc.Vector{0: 1})
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
	if preds, h := c.Analyze(f, 3); preds != nil || h != 1 {
		t.Error("untrained Analyze should be (nil, 1)")
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
		f := vec(textproc.Vector{trial % 8: 1})
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
	f := vec(textproc.Vector{0: 1})
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
			Features: vec(textproc.Vector{class: 1, 20 + rng.Intn(9): 0.4}),
			Label:    labels[class],
		})
	}
	if err := c.Train(set); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		f := vec(textproc.Vector{trial: 1, 21: 0.2})
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
		{Features: vec(textproc.Vector{0: 1}), Label: "zeta"},
		{Features: vec(textproc.Vector{0: 1}), Label: "alpha"},
	}
	if err := c.Train(examples); err != nil {
		t.Fatal(err)
	}
	top := c.TopK(vec(textproc.Vector{1: 1}), 2) // feature unseen -> near-uniform
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
	f := vec(textproc.Vector{0: 1})
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
	f := vec(textproc.Vector{0: 1})
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
		{Features: vec(textproc.Vector{0: 1}), Label: "old1"},
		{Features: vec(textproc.Vector{1: 1}), Label: "old2"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Train([]Example{
		{Features: vec(textproc.Vector{0: 1}), Label: "new1"},
		{Features: vec(textproc.Vector{1: 1}), Label: "new2"},
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
	f := vec(textproc.Vector{0: 1, 4: 0.2})
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
// from-scratch fit of the final set, on a fixed seed.
func TestWarmStartMatchesScratch(t *testing.T) {
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
}

// TestWarmStartGrowsFeatureSpace checks that a warm retrain tolerates new
// feature indexes (the dense matrices grow in place).
func TestWarmStartGrowsFeatureSpace(t *testing.T) {
	c := New(Config{Seed: 2, Epochs: 4})
	if err := c.Train([]Example{
		{Features: vec(textproc.Vector{0: 1}), Label: "a"},
		{Features: vec(textproc.Vector{1: 1}), Label: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Train([]Example{
		{Features: vec(textproc.Vector{0: 1, 50: 0.5}), Label: "a"},
		{Features: vec(textproc.Vector{1: 1, 51: 0.5}), Label: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if !c.WarmStarted() {
		t.Error("same vocabulary with new features should still warm start")
	}
	if got, _, ok := c.Predict(vec(textproc.Vector{0: 1, 50: 0.5})); !ok || got != "a" {
		t.Errorf("Predict after feature growth = %q, %v", got, ok)
	}
	// Scoring a vector with indexes beyond the trained width must not
	// panic and must ignore the unknown features.
	if got, _, ok := c.Predict(vec(textproc.Vector{0: 1, 9999: 3})); !ok || got != "a" {
		t.Errorf("Predict with out-of-range feature = %q, %v", got, ok)
	}
}

func TestAccuracyCountsUnknownLabelsAsMisses(t *testing.T) {
	c := New(Config{Seed: 1, Epochs: 2})
	if err := c.Train(separableSet(30, 1)); err != nil {
		t.Fatal(err)
	}
	test := []Example{{Features: vec(textproc.Vector{0: 1}), Label: "never-seen-label"}}
	if got := c.Accuracy(test); got != 0 {
		t.Errorf("unknown label accuracy = %g, want 0", got)
	}
}

func TestAnalyzeMatchesTopKAndEntropy(t *testing.T) {
	c := New(Config{Seed: 8})
	if err := c.Train(separableSet(90, 21)); err != nil {
		t.Fatal(err)
	}
	f := vec(textproc.Vector{0: 1, 5: 0.3, 7: 0.1})
	preds, h := c.Analyze(f, 3)
	top := c.TopK(f, 3)
	for i := range top {
		if top[i] != preds[i] {
			t.Fatalf("Analyze top-k differs at %d: %+v vs %+v", i, preds[i], top[i])
		}
	}
	if h != c.Entropy(f) {
		t.Error("Analyze entropy differs from Entropy")
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
		f := vec(textproc.Vector{trial % 8: 1, 3 + trial%5: 0.4})
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
			dim, nL, stride := parent.dim, parent.NumLabels(), parent.stride
			clone := parent.Clone()
			if clone.TrainedOn() != parent.TrainedOn() || clone.NumLabels() != nL {
				t.Fatalf("clone metadata: TrainedOn=%d/%d NumLabels=%d/%d",
					clone.TrainedOn(), parent.TrainedOn(), clone.NumLabels(), nL)
			}
			mustSameView(t, "fresh clone", viewOf(parent, probe), viewOf(clone, probe))

			ref := New(cfg)
			trainAll(t, ref, base, fit.grown, fit.set)
			if ref.WarmStarted() != fit.warm ||
				fit.warm && ((ref.NumLabels() != nL) != fit.newLabels || (ref.dim != dim) != fit.wider ||
					fit.newLabels && (ref.stride == stride) != fit.spare) {
				t.Fatalf("fit shape: warm %v, labels %d -> %d, dim %d -> %d, stride %d -> %d",
					ref.WarmStarted(), nL, ref.NumLabels(), dim, ref.dim, stride, ref.stride)
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
		reader.Analyze(f, 3)
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
		{Features: vec(textproc.Vector{0: 1}), Label: "a"},
		{Features: vec(textproc.Vector{1: 1}), Label: "b"},
		{Features: vec(textproc.Vector{0: 1, 3: 0.2}), Label: "a"},
		{Features: vec(textproc.Vector{1: 1, 3: 0.2}), Label: "b"},
	}
	abc := append(append([]Example(nil), ab...),
		Example{Features: vec(textproc.Vector{2: 1}), Label: "c"},
		Example{Features: vec(textproc.Vector{0: 1}), Label: "a"},
		Example{Features: vec(textproc.Vector{2: 1, 7: 0.3}), Label: "c"},
		Example{Features: vec(textproc.Vector{1: 1}), Label: "b"},
		Example{Features: vec(textproc.Vector{2: 1, 3: 0.2}), Label: "c"},
	)

	c := New(Config{Seed: 4, Epochs: 6})
	if err := c.Train(ab); err != nil {
		t.Fatal(err)
	}
	oldW := append([]float64(nil), c.w...)
	oldBias := append([]float64(nil), c.bias...)
	oldDim := c.dim

	// The re-layout alone keeps every known weight in place under the
	// wider stride and zeroes everything new, spare columns included. It
	// writes in place, so it runs on a private model trained like c, never
	// on a clone sharing c's buffers.
	relaid := New(Config{Seed: 4, Epochs: 6})
	if err := relaid.Train(ab); err != nil {
		t.Fatal(err)
	}
	relaid.addLabels(abc)
	relaid.grow(8)
	stride := relaid.stride
	if relaid.dim != 8 || stride < 3 || len(relaid.w) != 8*stride || len(relaid.gsq) != 8*stride {
		t.Fatalf("re-layout shape: dim %d, stride %d, len(w) %d, len(gsq) %d",
			relaid.dim, stride, len(relaid.w), len(relaid.gsq))
	}
	for fi := 0; fi < relaid.dim; fi++ {
		for cls := 0; cls < stride; cls++ {
			want := 0.0
			if fi < oldDim && cls < 2 {
				want = oldW[fi*2+cls]
			}
			if got := relaid.w[fi*stride+cls]; got != want {
				t.Fatalf("w[%d][%d] = %g after re-layout, want %g", fi, cls, got, want)
			}
			if cls >= 3 && relaid.gsq[fi*stride+cls] != 0 {
				t.Fatalf("gsq[%d][%d] = %g in a spare column", fi, cls, relaid.gsq[fi*stride+cls])
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

// TestWarmGrowthInSpareColumnsAllocatesNoMatrix: a warm fit whose new
// labels fit the class stride trains in the matrices it already has. The
// bound is a quarter of one weight matrix, so a re-layout (two matrices)
// fails it.
func TestWarmGrowthInSpareColumnsAllocatesNoMatrix(t *testing.T) {
	const dim = 3000
	rng := rand.New(rand.NewSource(31))
	// The widest feature is in the first fit, so later fits add no rows.
	pool := append(randExamples(rng, 40, 8, dim),
		Example{Features: vec(textproc.Vector{0: 1, dim - 1: 1}), Label: "label00"})
	c := New(Config{Seed: 2, Epochs: 2})
	trainAll(t, c, pool)
	pool = append(pool, randExamples(rng, 20, 10, dim)...)
	trainAll(t, c, pool) // 8 -> 10 labels: the stride grows to 12
	pool = append(pool, randExamples(rng, 24, 12, dim)...)
	w := &c.w[0]

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	trainAll(t, c, pool) // 10 -> 12 labels
	runtime.ReadMemStats(&after)

	matrix := uint64(dim * c.NumLabels() * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got >= matrix/4 {
		t.Errorf("warm fit into spare columns allocated %d B; one weight matrix is %d B", got, matrix)
	}
	if !c.WarmStarted() || c.NumLabels() != 12 || c.dim != dim {
		t.Fatalf("fit shape: warm %v, %d labels, dim %d", c.WarmStarted(), c.NumLabels(), c.dim)
	}
	if &c.w[0] != w {
		t.Error("the weight matrix moved")
	}
}

// TestWarmStartLabelSwapRefitsCold: gaining one label while losing another
// is not growth — the model refits from scratch and the dropped label is
// gone.
func TestWarmStartLabelSwapRefitsCold(t *testing.T) {
	c := New(Config{Seed: 1, Epochs: 3})
	if err := c.Train([]Example{
		{Features: vec(textproc.Vector{0: 1}), Label: "a"},
		{Features: vec(textproc.Vector{1: 1}), Label: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Train([]Example{
		{Features: vec(textproc.Vector{0: 1}), Label: "a"},
		{Features: vec(textproc.Vector{2: 1}), Label: "c"},
	}); err != nil {
		t.Fatal(err)
	}
	if c.WarmStarted() {
		t.Error("a vanished label must force a cold retrain")
	}
	if want := []string{"a", "c"}; !reflect.DeepEqual(c.Labels(), want) {
		t.Errorf("Labels() = %v, want %v", c.Labels(), want)
	}
	if c.ProbOf(vec(textproc.Vector{1: 1}), "b") != 0 {
		t.Error("stale label b still scored")
	}
	if len(c.bias) != 2 || len(c.w) != c.dim*2 {
		t.Errorf("stale class columns survived: len(bias) %d, len(w) %d, dim %d", len(c.bias), len(c.w), c.dim)
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
		if !reflect.DeepEqual(m1.labels, m2.labels) || m1.dim != m2.dim ||
			!reflect.DeepEqual(m1.w, m2.w) || !reflect.DeepEqual(m1.gsq, m2.gsq) ||
			!reflect.DeepEqual(m1.bias, m2.bias) || !reflect.DeepEqual(m1.gsqB, m2.gsqB) {
			t.Fatalf("round %d: models fed the same growth sequence diverged", r)
		}
	}
	if m1.NumLabels() != 12 {
		t.Errorf("NumLabels = %d after growth to 12", m1.NumLabels())
	}
}
