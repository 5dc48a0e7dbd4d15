// Package classifier implements the four property classifiers of the
// paper's Section 3.1 as multinomial logistic regression (softmax) over the
// sparse feature vectors of package feature, trained with AdaGrad and L2
// regularisation. The classifiers expose exactly the contract Scrutinizer
// needs:
//
//   - top-k label lists with probabilities (answer options, Corollary 2),
//   - full probability distributions (pruning power, Theorem 3),
//   - prediction entropy (training utility, Definition 7),
//   - cheap retraining as crowd labels accumulate (Algorithm 1 line 20),
//   - batch scoring of many claims in one pass (AnalyzeBatch), feeding the
//     engine's generation-scoped batch assessment.
//
// # Representation
//
// Weights live in one dense flat matrix laid out feature-major:
// w[fi*stride+class], where the class stride is at least the label count
// and the columns past the label count are zero. Feature vectors are
// textproc.Sparse (sorted slice-backed pairs), so a scoring pass walks the
// vector's nonzeros and, per feature, a contiguous row of per-class
// weights — no hashing, no branches, no bounds checks. The pass takes four
// feature rows per sweep over the class dimension, so each score is loaded
// and stored once per four products. Each score still adds its products
// one at a time in feature order, exactly as a row-at-a-time pass does,
// and floating-point results depend only on that order: the scores are
// bit-identical.
//
// The sweep has two bodies, picked once at init: an AVX2 kernel on amd64
// CPUs that have it (four classes per instruction, multiply then add,
// never FMA), and a portable Go loop everywhere else and in -race builds.
// They round every product and sum identically, so they are bit-identical
// too (see sweep4AVX2; Kernel reports the choice).
//
// The AdaGrad accumulators share the layout, and L2 is applied lazily:
// only the features present in an example are regularised on its update,
// exactly as the sparse-map implementation did. An update touches only
// the active set, the classes whose gradient reaches gradCutoff (1e-3):
// about 6% of the classes of a paper-scale model with ~400 labels.
//
// The update has two bodies too, picked by the same check as the
// sweep's: an AVX2 kernel that updates four active classes per
// iteration (scalar-insert loads, then multiply, add, square root,
// divide and subtract in the Go loop's order, never FMA), and the Go
// loop. VSQRTPD and VDIVPD round like the SQRTSD and DIVSD the Go loop
// compiles to, since IEEE 754 rounds square roots and quotients
// correctly, and the four lanes write four distinct columns, so the
// updates are bit-identical too (see adagradAVX2). Kernel names one
// choice for both kernels.
//
// Scoring scratch buffers come from a sync.Pool so concurrent inference
// (the engine fans claim scoring across goroutines) allocates nothing in
// steady state.
//
// # Warm-start retraining
//
// Algorithm 1 retrains after every crowd batch on the accumulated label
// set. That set only grows, and its label vocabulary grows with it: at
// paper scale every batch brings new labels. As long as no previously
// known label has vanished, Train reuses the existing weights and AdaGrad
// state and runs only Config.WarmStartEpochs passes. New labels are
// appended in first-seen order with zero weights. A first fit lays the
// matrices out at exactly the label count, and a cold refit at the larger
// of the label count and the stride of the model it replaces: a run's
// first fit refits its verifier's clone on a pool that lacks most of the
// verifier's labels, and its later fits add them back. New labels that fit
// the class stride take its zero spare columns in place, and labels that
// outgrow it re-lay the matrices out at strideGrowth times the stride, so
// a run's growing vocabulary costs at most O(log labels) re-layouts, not
// one per barrier. New feature rows append at the same stride. On the
// first fit, or when a known label vanished, Train refits from scratch, so
// stale classes can never linger.
// Config.ColdStart disables the warm path entirely for callers that need
// scratch-identical models.
//
// A warm fit still passes over the whole pool, so retraining after every
// batch costs a run work quadratic in its length. A caller that knows its
// pool extends the previous fit's calls TrainAppended instead: the warm
// passes then visit the new examples plus a seeded sample of ReplaySample
// older ones, so each fit costs about the same however long the run.
//
// # Copy-on-write clones
//
// Every verification run retrains its own copy of the verifier's four
// models, so copies are frequent while most of them are only ever read:
// a run's first fit is normally cold and allocates fresh buffers anyway.
// Clone is therefore O(1). Parent and clone share the vocabulary, weights
// and AdaGrad state and are both marked shared, and Train copies only what
// it is about to write, only while the mark is set. A cold fit and a warm
// fit that re-lays the matrices out already write into fresh buffers; a
// warm fit of a shared model copies the vocabulary and bias vectors, and
// the matrices too when they were not re-laid out, including when new
// labels fit the stride (their spare columns are in the shared buffer). A
// model nobody cloned trains in place.
//
// # Batch scoring
//
// Algorithm 1 re-scores every remaining claim before every batch, and the
// scheduler needs all of them at once. AnalyzeBatch scores N feature
// vectors against the weight matrix in dense row-major blocks — one pooled
// scores matrix per block, softmax+entropy fused into the normalisation
// pass per row, and all top-k prediction lists carved from a single arena
// allocation — producing results bit-identical to N sequential TopK and
// Entropy calls (pinned by a property test) at a fraction of the
// allocations.
//
// This substitutes the scikit-learn models of the authors' Python
// implementation; see DESIGN.md.
package classifier

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/repro/scrutinizer/internal/textproc"
)

// Config controls training.
type Config struct {
	// Epochs is the number of passes over the training set (default 12).
	Epochs int
	// LearningRate is the AdaGrad base step (default 0.5).
	LearningRate float64
	// L2 is the ridge penalty (default 1e-4).
	L2 float64
	// Seed drives the (deterministic) example shuffling.
	Seed int64
	// WarmStartEpochs is the number of passes a warm-start retrain runs
	// when no known label vanished and the previous weights are reused
	// (default max(2, Epochs/3)).
	WarmStartEpochs int
	// ColdStart forces every Train call to refit from scratch, disabling
	// warm-start weight reuse.
	ColdStart bool
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 12
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.5
	}
	if c.L2 < 0 {
		c.L2 = 0
	} else if c.L2 == 0 {
		c.L2 = 1e-4
	}
	if c.WarmStartEpochs <= 0 {
		c.WarmStartEpochs = c.Epochs / 3
		if c.WarmStartEpochs < 2 {
			c.WarmStartEpochs = 2
		}
	}
	if c.WarmStartEpochs > c.Epochs {
		// A warm retrain must never cost more passes than the
		// from-scratch fit it undercuts, whether the value was derived
		// (tiny Epochs settings) or set explicitly.
		c.WarmStartEpochs = c.Epochs
	}
	return c
}

// Example is one training observation.
type Example struct {
	Features textproc.Sparse
	Label    string
}

// Prediction is a scored label.
type Prediction struct {
	Label string
	Prob  float64
}

// Classifier is a softmax regression model over a growing label vocabulary.
// The zero value is not usable; create with New. Training mutates the
// model (never a clone's view of it); all scoring methods are safe for
// concurrent use between Train calls.
type Classifier struct {
	cfg      Config
	labels   []string
	labelIdx map[string]int
	// dim is the feature-space width: weights exist for indexes [0, dim).
	dim int
	// w is the dense feature-major weight matrix, w[fi*stride+class];
	// gsq is the AdaGrad accumulator with the same shape. Only classes
	// [0, len(labels)) are ever read or written; the columns from there to
	// stride stay zero, ready for labels a warm fit adds.
	w      []float64
	gsq    []float64
	stride int
	bias   []float64
	gsqB   []float64

	trained int  // the last fit's pool size
	steps   int  // SGD updates the last fit made
	rounds  int  // fits so far (drives the warm-start shuffle stream)
	warm    bool // whether the last fit took the warm-start path

	// shared is set on both sides of a Clone: labels, labelIdx, w, gsq,
	// bias and gsqB may be read by another model, so Train copies them
	// before writing. Atomic because concurrent Clones of one model all
	// set it.
	shared atomic.Bool

	// scratch pools per-goroutine softmax buffers for the scoring paths.
	scratch sync.Pool
}

// New creates an empty classifier.
func New(cfg Config) *Classifier {
	return &Classifier{
		cfg:      cfg.withDefaults(),
		labelIdx: make(map[string]int),
	}
}

// Clone returns a copy of the model in O(1): the clone shares the parent's
// label vocabulary, weights and AdaGrad state, and both models are marked
// shared. Train copies a shared buffer before it writes to it, so training
// either model never perturbs the other (see "Copy-on-write clones" in the
// package doc). The clone copies the warm-start round counter and starts
// with an empty scratch pool. Clone must not run concurrently with Train on
// the same model; it is safe to run concurrently with the scoring methods
// and with other Clone calls.
func (c *Classifier) Clone() *Classifier {
	c.shared.Store(true)
	cp := &Classifier{
		cfg:      c.cfg,
		labels:   c.labels,
		labelIdx: c.labelIdx,
		dim:      c.dim,
		w:        c.w,
		gsq:      c.gsq,
		stride:   c.stride,
		bias:     c.bias,
		gsqB:     c.gsqB,
		trained:  c.trained,
		rounds:   c.rounds,
		warm:     c.warm,
	}
	cp.shared.Store(true)
	return cp
}

// Labels returns the label vocabulary in first-seen order. Callers must not
// mutate the returned slice.
func (c *Classifier) Labels() []string { return c.labels }

// NumLabels returns the vocabulary size.
func (c *Classifier) NumLabels() int { return len(c.labels) }

// TrainedOn returns the size of the training pool of the last fit (Train
// or TrainAppended).
func (c *Classifier) TrainedOn() int { return c.trained }

// Steps returns how many SGD updates the last fit made: its passes times
// the examples each pass visited. It measures a fit's work without timing
// it.
func (c *Classifier) Steps() int { return c.steps }

// WarmStarted reports whether the last fit reused the previous weights
// (warm start) rather than refitting from scratch.
func (c *Classifier) WarmStarted() bool { return c.warm }

// Train fits the model on examples. When every label of the current
// vocabulary still occurs in the example set (and ColdStart is off), the
// existing weights and AdaGrad state are reused and only WarmStartEpochs
// passes run — the cheap per-batch retrain of Algorithm 1. Labels new to
// the model are appended in first-seen order and start from zero weights;
// for an append-only training pool that is the order a from-scratch fit
// produces. Otherwise — the first fit, or a previously known label
// vanished — the vocabulary is rebuilt and the model refits from scratch
// over Epochs passes.
func (c *Classifier) Train(examples []Example) error { return c.train(examples, false) }

// ReplaySample is how many examples of the previous fit's pool a
// replay-sampled warm fit (see TrainAppended) passes over besides the new
// ones. It is a constant, not a Config field. Over eight splits of the
// paper-scale world (pools of 100 to 770 claims), 200 kept a run's crowd
// seconds within -0.3% to +0.4% of full passes; 100 cost 1.3% to 1.8%
// more on four of them.
const ReplaySample = 200

// TrainAppended is Train for a pool that extends the previous fit's: the
// caller promises that examples[:TrainedOn()] is exactly the pool of the
// last fit, in the same order, so only examples[TrainedOn():] are new.
// A warm fit then passes over every new example plus a seeded sample of
// ReplaySample old ones, instead of the whole pool, so its work is at
// most (new + ReplaySample) × WarmStartEpochs steps however long the pool
// has grown. New labels join exactly as in Train. A cold fit, or a warm
// one whose old examples number ReplaySample or fewer, is exactly Train.
// It fails when the pool is shorter than the previous one.
func (c *Classifier) TrainAppended(examples []Example) error {
	if len(examples) < c.trained {
		return fmt.Errorf("classifier: appended pool of %d examples is shorter than the previous pool of %d", len(examples), c.trained)
	}
	return c.train(examples, true)
}

// train is Train, or with appended TrainAppended.
func (c *Classifier) train(examples []Example, appended bool) error {
	if len(examples) == 0 {
		return fmt.Errorf("classifier: no training examples")
	}
	maxIdx := -1
	fresh := make(map[string]bool, len(c.labels)+1)
	for _, ex := range examples {
		if ex.Label == "" {
			return fmt.Errorf("classifier: empty label in training set")
		}
		fresh[ex.Label] = true
		if m := ex.Features.MaxIndex(); m > maxIdx {
			maxIdx = m
		}
	}
	warm := !c.cfg.ColdStart && c.trained > 0
	if warm {
		for _, l := range c.labels {
			if !fresh[l] {
				warm = false
				break
			}
		}
	}

	epochs := c.cfg.Epochs
	if warm {
		epochs = c.cfg.WarmStartEpochs
		shared := c.shared.Load()
		if shared {
			// Copy before write: addLabels, grow and sgdStep write these
			// in place (or append past a shared length).
			c.labels = slices.Clone(c.labels)
			c.labelIdx = maps.Clone(c.labelIdx)
			c.bias = slices.Clone(c.bias)
			c.gsqB = slices.Clone(c.gsqB)
			// Without spare capacity, new feature rows cannot append
			// into the other model's buffers.
			c.w, c.gsq = slices.Clip(c.w), slices.Clip(c.gsq)
		}
		c.addLabels(examples)
		if !c.grow(maxIdx+1) && shared {
			// Also when the new labels fit the stride: the columns they
			// fill live in the buffer the other model reads.
			c.w = slices.Clone(c.w)
			c.gsq = slices.Clone(c.gsq)
		}
	} else {
		c.labels = nil
		c.labelIdx = make(map[string]int, len(fresh))
		c.addLabels(examples)
		nL := len(c.labels)
		c.dim = maxIdx + 1
		// A refit keeps the stride of the model it replaces (a fresh
		// model's is 0), so the labels a run's warm fits add back fill
		// spare columns instead of re-laying the matrices out.
		c.stride = max(nL, c.stride)
		c.w = make([]float64, c.dim*c.stride)
		c.gsq = make([]float64, c.dim*c.stride)
		c.bias = make([]float64, nL)
		c.gsqB = make([]float64, nL)
		// Pooled scratch buffers of the old width are filtered out by the
		// length check in getScratch and fall to the collector.
	}
	// Every buffer the fit writes is now private to this model.
	c.shared.Store(false)
	old := c.trained
	c.trained = len(examples)
	c.warm = warm
	c.rounds++

	nL := len(c.labels)
	scores := make([]float64, nL)
	active := make([]int32, 0, nL)
	ga := make([]float64, 0, nL)

	// Deterministic shuffled order via an LCG permutation per epoch; the
	// stream advances with the round counter so warm-started retrains do
	// not replay the previous call's order.
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	state := uint64(c.cfg.Seed)*6364136223846793005 + 1442695040888963407 +
		uint64(c.rounds-1)*0x9E3779B97F4A7C15
	if appended && warm && old > ReplaySample {
		// Replay sample: a partial Fisher-Yates with the same LCG draws
		// ReplaySample of the old indexes into the front of order, and
		// the new indexes follow them.
		for i := 0; i < ReplaySample; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			j := i + int(state>>33)%(old-i)
			order[i], order[j] = order[j], order[i]
		}
		order = append(order[:ReplaySample], order[old:]...)
	}
	c.steps = epochs * len(order)

	for epoch := 0; epoch < epochs; epoch++ {
		// Fisher-Yates with the LCG.
		for i := len(order) - 1; i > 0; i-- {
			state = state*6364136223846793005 + 1442695040888963407
			j := int(state>>33) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, idx := range order {
			active, ga = c.sgdStep(examples[idx], scores, active, ga)
		}
	}
	return nil
}

// addLabels appends the examples' labels that are new to the vocabulary,
// in first-seen order.
func (c *Classifier) addLabels(examples []Example) {
	for _, ex := range examples {
		if _, ok := c.labelIdx[ex.Label]; !ok {
			c.labelIdx[ex.Label] = len(c.labels)
			c.labels = append(c.labels, ex.Label)
		}
	}
}

// strideGrowth is the factor by which a warm fit widens the class stride
// when its labels outgrow it. A run's barriers add labels at every batch,
// so growing geometrically re-lays the matrices out O(log labels) times
// per run instead of at every barrier, for at most this factor of spare
// columns.
const strideGrowth = 1.5

// grow widens a warm model to the current label count and to at least
// width features, appending zero bias and bias accumulators for the new
// labels. When the labels fit the class stride and the feature rows fit
// the matrices' capacity, the matrices are extended in place: the columns
// and rows they gain are still zero. Otherwise they are re-laid out in one
// fresh pair of buffers, each dimension that overflowed growing to
// max(needed, strideGrowth × current); rows append at the end, and
// everything new starts at zero. It reports whether the matrices now live
// in fresh buffers.
func (c *Classifier) grow(width int) bool {
	nL := len(c.labels)
	oldL := len(c.bias)
	c.bias = append(c.bias, make([]float64, nL-oldL)...)
	c.gsqB = append(c.gsqB, make([]float64, nL-oldL)...)
	width = max(width, c.dim)
	stride, rows := c.stride, min(cap(c.w), cap(c.gsq))/c.stride
	if nL <= stride && width <= rows {
		n := width * stride
		c.w, c.gsq = c.w[:n], c.gsq[:n]
		c.dim = width
		return false
	}
	if nL > stride {
		stride = max(nL, int(strideGrowth*float64(stride)))
	}
	if width > rows {
		rows = max(width, int(strideGrowth*float64(rows)))
	}
	w := make([]float64, width*stride, rows*stride)
	gsq := make([]float64, width*stride, rows*stride)
	for fi := 0; fi < c.dim; fi++ {
		copy(w[fi*stride:], c.w[fi*c.stride:][:oldL])
		copy(gsq[fi*stride:], c.gsq[fi*c.stride:][:oldL])
	}
	c.w, c.gsq, c.dim, c.stride = w, gsq, width, stride
	return true
}

// gradCutoff is the smallest |gradient| for which sgdStep updates a class;
// a class other than the target has gradient p. With hundreds of labels
// the softmax is flat rather than peaked at ~0. Measured over the
// training steps of paper-scale models with 300 or more labels (about 400
// on average) under a 1e-4 cutoff, 87% of the probabilities were at or
// above 1e-4, 20% at or above 1e-3 and 0.6% at or above 1e-2, so that
// cutoff updated almost every class. Under 1e-3 the active set is about
// 6% of the classes. The target's gradient is p-1, so it is updated
// unless its probability exceeds 0.999.
const gradCutoff = 1e-3

// sgdStep applies one AdaGrad update for a single example. scores is
// caller-owned scratch (len == numLabels); active and ga are caller-owned
// buffers (cap >= numLabels) for the active classes and their gradients,
// returned for reuse.
func (c *Classifier) sgdStep(ex Example, scores []float64, active []int32, ga []float64) ([]int32, []float64) {
	c.scoreInto(ex.Features, scores)
	softmaxInPlace(scores)
	target := c.labelIdx[ex.Label]
	lr := c.cfg.LearningRate
	l2 := c.cfg.L2

	// Collect the active set: the classes whose gradient reaches
	// gradCutoff, with their gradients packed alongside. Every other
	// class is left alone, like the sparse updates of mature learners.
	// Bias updates happen here too. Every product is converted to float64
	// explicitly, which by the Go spec forbids fusing it with an add into
	// an FMA, so the updates round alike on every architecture (CI greps
	// the arm64 assembly).
	active, ga = active[:0], ga[:0]
	for class, p := range scores {
		g := p
		if class == target {
			g--
		}
		if g > -gradCutoff && g < gradCutoff {
			continue
		}
		active = append(active, int32(class))
		ga = append(ga, g)
		gb := g + float64(l2*c.bias[class])
		c.gsqB[class] += float64(gb * gb)
		c.bias[class] -= lr * gb / (math.Sqrt(c.gsqB[class]) + 1e-8)
	}

	ix, vals := ex.Features.Raw()
	adagradUpdate(c.w, c.gsq, c.stride, ix, vals, active, ga, l2, lr)
	return active, ga
}

// scoreInto fills scores (len == numLabels) with the linear scores of f:
// bias plus the weight rows of f's nonzeros, each scaled by its value.
// Indexes at or above the trained width carry zero weight and are dropped
// up front. The class dimension is swept once per four rows by sweep4 (the
// leftover zero to three take the single-row loop) without reordering any
// class's sum, so the scores are bit-identical to a row-at-a-time sweep
// (pinned by TestScoreIntoMatchesReference).
func (c *Classifier) scoreInto(f textproc.Sparse, scores []float64) {
	copy(scores, c.bias)
	nL := len(scores)
	ix, vals := f.Raw()
	n := len(ix)
	for n > 0 && int(ix[n-1]) >= c.dim {
		n-- // indexes are sorted: the out-of-range ones form the tail
	}
	// Rows are resliced to len(scores): the spare columns past it are
	// never read, and the compiler drops the bounds checks in the
	// single-row loop below.
	row := func(k int) []float64 { return c.w[int(ix[k])*c.stride:][:nL] }
	k := 0
	for ; k+4 <= n; k += 4 {
		sweep4(scores, row(k), row(k+1), row(k+2), row(k+3),
			vals[k], vals[k+1], vals[k+2], vals[k+3])
	}
	for ; k < n; k++ {
		r, x := row(k), vals[k]
		for j, wv := range r {
			scores[j] += float64(wv * x)
		}
	}
}

// softmaxInPlace turns linear scores into probabilities and returns the
// Shannon entropy (nats) of the resulting distribution. The entropy falls
// out of the normalisation pass — H = ln z − (Σ eᵢ·sᵢ)/z with sᵢ the
// max-shifted scores — so no per-element logarithm is needed, which is
// what makes the scheduler's utility scan cheap. The products are
// converted to float64 explicitly, so no compiler fuses them (see sgdStep).
func softmaxInPlace(scores []float64) float64 {
	maxScore := math.Inf(-1)
	for _, s := range scores {
		if s > maxScore {
			maxScore = s
		}
	}
	var z, dot float64
	for i, s := range scores {
		shifted := s - maxScore
		e := math.Exp(shifted)
		scores[i] = e
		z += e
		dot += float64(e * shifted)
	}
	inv := 1 / z
	for i := range scores {
		scores[i] *= inv
	}
	return math.Log(z) - float64(dot*inv)
}

// getScratch returns a pooled probability buffer of the current width.
func (c *Classifier) getScratch() []float64 {
	if buf, ok := c.scratch.Get().(*[]float64); ok && len(*buf) == len(c.labels) {
		return *buf
	}
	return make([]float64, len(c.labels))
}

func (c *Classifier) putScratch(buf []float64) {
	c.scratch.Put(&buf)
}

// probsInto computes softmax probabilities for f into the caller's buffer,
// returning the distribution's entropy as a by-product of normalisation.
func (c *Classifier) probsInto(f textproc.Sparse, probs []float64) float64 {
	c.scoreInto(f, probs)
	return softmaxInPlace(probs)
}

// Probs returns the probability distribution over labels for a feature
// vector, aligned with Labels(). It returns nil when the model is untrained.
func (c *Classifier) Probs(f textproc.Sparse) []float64 {
	if len(c.labels) == 0 {
		return nil
	}
	probs := make([]float64, len(c.labels))
	c.probsInto(f, probs)
	return probs
}

// batchRows bounds the row count of AnalyzeBatch's scores block so the
// working set stays cache-resident regardless of how many claims a
// scheduler round scores at once.
const batchRows = 64

// batchScratch holds AnalyzeBatch's reusable buffers: the row-major scores
// block and the top-k selection index scratch. Pooled package-wide (reuse
// is capacity-based, so blocks migrate freely between models of different
// label widths).
type batchScratch struct {
	scores []float64
	sel    []int
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch(size int) *batchScratch {
	bs := batchPool.Get().(*batchScratch)
	if cap(bs.scores) < size {
		bs.scores = make([]float64, size)
	} else {
		bs.scores = bs.scores[:size]
	}
	return bs
}

func putBatchScratch(bs *batchScratch) { batchPool.Put(bs) }

// AnalyzeBatch scores all feature vectors for one property kind in a
// single pass: linear scores are written block-by-block into a pooled
// row-major matrix (batchRows × numLabels), softmax and entropy are fused
// into the normalisation sweep per row, and every row's top-k predictions
// are appended into one shared arena so N claims cost one predictions
// allocation instead of N. Results are bit-identical to calling TopK and
// Entropy per element (pinned by TestAnalyzeBatchMatchesSequential): untrained
// models yield nil predictions and entropy 1 for every row, k <= 0 yields
// nil predictions, and the per-row selection/tie-break order is exactly
// rankTopK's.
func (c *Classifier) AnalyzeBatch(fs []textproc.Sparse, k int) ([][]Prediction, []float64) {
	n := len(fs)
	preds := make([][]Prediction, n)
	ents := make([]float64, n)
	if n == 0 {
		return preds, ents
	}
	if len(c.labels) == 0 {
		for i := range ents {
			ents[i] = 1
		}
		return preds, ents
	}
	nL := len(c.labels)
	kEff := k
	if kEff > nL {
		kEff = nL
	}
	rows := n
	if rows > batchRows {
		rows = batchRows
	}
	bs := getBatchScratch(rows * nL)
	var arena []Prediction
	if kEff > 0 {
		// Exact: each row appends exactly kEff predictions, so the arena
		// never regrows and the per-row subslices stay valid.
		arena = make([]Prediction, 0, n*kEff)
	}
	sel := bs.sel
	for base := 0; base < n; base += batchRows {
		rows = n - base
		if rows > batchRows {
			rows = batchRows
		}
		buf := bs.scores[:rows*nL]
		for i := 0; i < rows; i++ {
			row := buf[i*nL : (i+1)*nL]
			c.scoreInto(fs[base+i], row)
			ents[base+i] = softmaxInPlace(row)
		}
		if kEff <= 0 {
			continue
		}
		for i := 0; i < rows; i++ {
			row := buf[i*nL : (i+1)*nL]
			start := len(arena)
			arena, sel = c.rankTopKInto(row, k, arena, sel)
			if len(arena) > start {
				preds[base+i] = arena[start:len(arena):len(arena)]
			}
		}
	}
	bs.sel = sel
	putBatchScratch(bs)
	return preds, ents
}

// Predict returns the single most probable label (ties broken by label
// string for determinism) and its probability. ok is false when untrained.
func (c *Classifier) Predict(f textproc.Sparse) (label string, prob float64, ok bool) {
	top := c.TopK(f, 1)
	if len(top) == 0 {
		return "", 0, false
	}
	return top[0].Label, top[0].Prob, true
}

// TopK returns the k most probable labels in descending probability order,
// ties broken lexicographically.
func (c *Classifier) TopK(f textproc.Sparse, k int) []Prediction {
	if len(c.labels) == 0 || k <= 0 {
		return nil
	}
	probs := c.getScratch()
	c.probsInto(f, probs)
	preds := c.rankTopK(probs, k)
	c.putScratch(probs)
	return preds
}

// rankTopK selects the k best labels by partial insertion — O(n·k) with a
// cheap reject test instead of sorting all n labels, which dominated
// inference at paper scale (hundreds of labels, k ≤ 10).
func (c *Classifier) rankTopK(probs []float64, k int) []Prediction {
	preds, _ := c.rankTopKInto(probs, k, nil, nil)
	return preds
}

// rankTopKInto is rankTopK appending into caller-owned buffers: out
// receives the predictions (the selected row is the appended tail), sel is
// the selection index scratch. Both may be nil; the possibly regrown
// buffers are returned for reuse. The selection itself is identical to
// rankTopK's.
func (c *Classifier) rankTopKInto(probs []float64, k int, out []Prediction, sel []int) ([]Prediction, []int) {
	n := len(probs)
	if k > n {
		k = n
	}
	if k <= 0 {
		return out, sel
	}
	// worse(a, b): label a ranks strictly after label b.
	worse := func(a, b int) bool {
		if probs[a] != probs[b] {
			return probs[a] < probs[b]
		}
		return c.labels[a] > c.labels[b]
	}
	sel = sel[:0]
	for i := 0; i < n; i++ {
		if len(sel) < k {
			sel = append(sel, i)
		} else if worse(sel[k-1], i) {
			sel[k-1] = i
		} else {
			continue
		}
		for p := len(sel) - 1; p > 0 && worse(sel[p-1], sel[p]); p-- {
			sel[p-1], sel[p] = sel[p], sel[p-1]
		}
	}
	for _, li := range sel {
		out = append(out, Prediction{Label: c.labels[li], Prob: probs[li]})
	}
	return out, sel
}

// Entropy returns the Shannon entropy (nats) of the predictive distribution
// — the per-model term of the training-utility heuristic (Definition 7).
// Untrained models report the maximum possible uncertainty proxy of 1.
func (c *Classifier) Entropy(f textproc.Sparse) float64 {
	if len(c.labels) == 0 {
		return 1
	}
	probs := c.getScratch()
	h := c.probsInto(f, probs)
	c.putScratch(probs)
	return h
}

// ProbOf returns the probability assigned to a specific label, or 0 for
// unknown labels / untrained models.
func (c *Classifier) ProbOf(f textproc.Sparse, label string) float64 {
	i, ok := c.labelIdx[label]
	if !ok || len(c.labels) == 0 {
		return 0
	}
	probs := c.getScratch()
	c.probsInto(f, probs)
	p := probs[i]
	c.putScratch(probs)
	return p
}

// Accuracy computes top-1 accuracy over a labelled evaluation set; labels
// absent from the vocabulary always count as misses (they can never be
// predicted).
func (c *Classifier) Accuracy(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	hits := 0
	for _, ex := range examples {
		if got, _, ok := c.Predict(ex.Features); ok && got == ex.Label {
			hits++
		}
	}
	return float64(hits) / float64(len(examples))
}

// TopKAccuracy computes the fraction of examples whose true label appears in
// the model's top-k predictions (Figure 10).
func (c *Classifier) TopKAccuracy(examples []Example, k int) float64 {
	if len(examples) == 0 {
		return 0
	}
	hits := 0
	for _, ex := range examples {
		for _, p := range c.TopK(ex.Features, k) {
			if p.Label == ex.Label {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(examples))
}
