package classifier

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/repro/scrutinizer/internal/textproc"
)

// updateBody is one named body of the AdaGrad update.
type updateBody struct {
	name string
	fn   updateFunc
}

// updateBodies lists the bodies this build and CPU can run: always the Go
// loop, plus the AVX2 kernel where it is available.
func updateBodies() []updateBody {
	bodies := []updateBody{{"go", adagradGo}}
	if avx2Update != nil {
		bodies = append(bodies, updateBody{"avx2", avx2Update})
	}
	return bodies
}

// withUpdate runs f with sgdStep using body, then restores the body
// chosen at init.
func withUpdate(body updateFunc, f func()) {
	defer func(prev updateFunc) { adagradUpdate = prev }(adagradUpdate)
	adagradUpdate = body
	f()
}

// underEachKernel runs f as one subtest per kernel choice this build and
// CPU can make: "go" swaps in both Go bodies, "avx2" both AVX2 kernels.
func underEachKernel(t *testing.T, f func(t *testing.T)) {
	sweeps, updates := sweepBodies(), updateBodies()
	for i := range sweeps {
		t.Run(sweeps[i].name, func(t *testing.T) {
			withSweep(sweeps[i].fn, func() { withUpdate(updates[i].fn, func() { f(t) }) })
		})
	}
}

// refUpdate is the reference of an update body: sgdStep's loop as it was
// before the active gradients were packed, indexing a full per-class
// gradient vector. Each product is explicitly converted to float64, so no
// compiler may fuse it into an FMA.
func refUpdate(w, gsq []float64, stride int, ix []int32, vals []float64, active []int32, ga []float64, l2, lr float64) {
	grads := make([]float64, stride)
	for j, cls := range active {
		grads[cls] = ga[j]
	}
	for k, fi := range ix {
		x := vals[k]
		base := int(fi) * stride
		for _, cls := range active {
			i := base + int(cls)
			grad := float64(grads[cls]*x) + float64(l2*w[i])
			gsq[i] += float64(grad * grad)
			w[i] -= lr * grad / (math.Sqrt(gsq[i]) + 1e-8)
		}
	}
}

// updateCase is one input of an update body.
type updateCase struct {
	w, gsq, vals, ga []float64
	stride           int
	ix, active       []int32
	l2, lr           float64
}

// run applies body to copies of the matrices, at the given offset, and
// returns them.
func (uc updateCase) run(body updateFunc, off int) (w, gsq []float64) {
	w, gsq = unaligned(len(uc.w), off), unaligned(len(uc.gsq), off+1)
	copy(w, uc.w)
	copy(gsq, uc.gsq)
	body(w, gsq, uc.stride, uc.ix, uc.vals, uc.active, uc.ga, uc.l2, uc.lr)
	return w, gsq
}

// check fails unless every body updates uc bit-identically to refUpdate.
func (uc updateCase) check(t *testing.T, what string, off int) {
	t.Helper()
	wantW, wantG := uc.run(refUpdate, off)
	for _, body := range updateBodies() {
		w, gsq := uc.run(body.fn, off)
		sameScores(t, fmt.Sprintf("%s: %s weights", body.name, what), w, wantW)
		sameScores(t, fmt.Sprintf("%s: %s accumulators", body.name, what), gsq, wantG)
	}
}

// randomActive draws n distinct classes below nL, in ascending order as
// sgdStep collects them.
func randomActive(rng *rand.Rand, n, nL int) []int32 {
	active := make([]int32, 0, n)
	for _, c := range rng.Perm(nL)[:n] {
		active = append(active, int32(c))
	}
	slices.Sort(active)
	return active
}

// TestUpdateMatchesGeneric pins every update body bit-identical to the
// reference loop: active sets of 0-5 classes (every tail length, with and
// without a vector block), 24 (about 6% of a paper-scale model) and all
// classes; 1, 7 and 405 labels at strides equal to and larger than the
// label count; one-nonzero and many-nonzero vectors; matrices at odd
// offsets; values including signed zeros, subnormals, infinities,
// overflowing products and NaN.
func TestUpdateMatchesGeneric(t *testing.T) {
	t.Logf("kernel in use: %s", Kernel())
	rng := rand.New(rand.NewSource(22))
	for _, nL := range []int{1, 7, 405} {
		for _, spare := range []int{0, 3} {
			stride := nL + spare
			var sizes []int
			for n := 0; n <= min(5, nL); n++ {
				sizes = append(sizes, n)
			}
			if nL > 24 {
				sizes = append(sizes, 24)
			}
			sizes = append(sizes, nL)
			for _, nActive := range sizes {
				for _, nnz := range []int{1, 9} {
					for trial := 0; trial < 6; trial++ {
						const dim = 12
						uc := updateCase{
							w:      make([]float64, dim*stride),
							gsq:    make([]float64, dim*stride),
							stride: stride,
							ix:     randomActive(rng, nnz, dim),
							active: randomActive(rng, nActive, nL),
							l2:     1e-4,
							lr:     0.5,
						}
						for i := range uc.w {
							uc.w[i] = sweepValue(rng)
							uc.gsq[i] = math.Abs(sweepValue(rng))
						}
						for range uc.ix {
							uc.vals = append(uc.vals, sweepValue(rng))
						}
						for range uc.active {
							uc.ga = append(uc.ga, sweepValue(rng))
						}
						if trial%3 == 2 {
							uc.l2, uc.lr = sweepValue(rng), sweepValue(rng)
						}
						what := fmt.Sprintf("%d labels, stride %d, %d active, %d nonzeros, trial %d",
							nL, stride, nActive, nnz, trial)
						uc.check(t, what, 1+2*(trial%3))
					}
				}
			}
		}
	}
}

// TestUpdateRejectsUntrustedShapes pins the checks the AVX2 wrapper makes
// before it lets the assembly touch memory: each malformed call panics
// instead of writing past the matrices.
func TestUpdateRejectsUntrustedShapes(t *testing.T) {
	if avx2Update == nil {
		t.Skipf("only the %s body runs on this build and CPU", Kernel())
	}
	const stride, dim = 8, 4
	w, gsq := make([]float64, dim*stride), make([]float64, dim*stride)
	cases := map[string]func(){
		"row past the matrix": func() {
			avx2Update(w, gsq, stride, []int32{1, dim}, []float64{1, 1}, []int32{0}, []float64{1}, 0, 1)
		},
		"negative row": func() {
			avx2Update(w, gsq, stride, []int32{-1}, []float64{1}, []int32{0}, []float64{1}, 0, 1)
		},
		"short accumulators": func() {
			avx2Update(w, gsq[:len(gsq)-1], stride, []int32{dim - 1}, []float64{1}, []int32{0}, []float64{1}, 0, 1)
		},
		"class past the stride": func() {
			avx2Update(w, gsq, stride, []int32{0}, []float64{1}, []int32{stride}, []float64{1}, 0, 1)
		},
		"unpacked gradients": func() {
			avx2Update(w, gsq, stride, []int32{0}, []float64{1}, []int32{0, 1}, []float64{1}, 0, 1)
		},
		"short values": func() {
			avx2Update(w, gsq, stride, []int32{0, 1}, []float64{1}, []int32{0}, []float64{1}, 0, 1)
		},
	}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			call()
		})
	}
}

// FuzzAdagradUpdate checks every update body against the reference loop on
// arbitrary bit patterns. shape picks the label count (1-40), whether the
// stride has spare columns, and the active classes (mask bit c%64 for
// class c); data holds the active gradients, then per nonzero its value
// and its weight and accumulator rows. Nonzero k sits in matrix row 2k+1,
// so the rows between must come out untouched. The seed corpus is in
// testdata/fuzz/FuzzAdagradUpdate.
func FuzzAdagradUpdate(f *testing.F) {
	f.Add(make([]byte, 8*64), uint8(9), uint64(0b1011_0111), 1e-4, 0.5)
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, mask uint64, l2, lr float64) {
		nL := 1 + int(shape%40)
		stride := nL + int(shape/40%3)
		var active []int32
		for c := 0; c < nL; c++ {
			if mask&(1<<(c%64)) != 0 {
				active = append(active, int32(c))
			}
		}
		words := len(data) / 8
		word := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if words < len(active) {
			return
		}
		rows := min((words-len(active))/(1+2*stride), 16)
		uc := updateCase{
			w:      make([]float64, (2*rows+1)*stride),
			gsq:    make([]float64, (2*rows+1)*stride),
			stride: stride,
			active: active,
			l2:     l2,
			lr:     lr,
		}
		next := 0
		take := func() float64 { next++; return word(next - 1) }
		for range active {
			uc.ga = append(uc.ga, take())
		}
		for k := 0; k < rows; k++ {
			uc.ix = append(uc.ix, int32(2*k+1))
			uc.vals = append(uc.vals, take())
			base := (2*k + 1) * stride
			for j := 0; j < stride; j++ {
				uc.w[base+j], uc.gsq[base+j] = take(), take()
			}
		}
		uc.check(t, fmt.Sprintf("%d labels, stride %d, %d active, %d rows", nL, stride, len(active), rows), int(shape%4))
	})
}

// paperShapePool is a training pool of paper-scale models' shape: vectors
// of 123 nonzeros over 4,496 features (64 dense features plus 59 TF-IDF
// terms, one of them tied to the label) and labels from a vocabulary of
// nL, drawn from a growing prefix of it so warm fits gain labels.
func paperShapePool(n, nL int, seed int64) []Example {
	const dim, dense, tfidf = 4496, 64, 59
	rng := rand.New(rand.NewSource(seed))
	pool := make([]Example, n)
	for i := range pool {
		label := rng.Intn(max(1, nL*(i+1)/n))
		v := map[int]float64{dense + label: 1}
		for j := 0; j < dense; j++ {
			v[j] = rng.NormFloat64()
		}
		for len(v) < dense+tfidf {
			v[dense+rng.Intn(dim-dense)] = rng.Float64()
		}
		pool[i] = Example{Features: vec(v), Label: fmt.Sprintf("label-%d", label)}
	}
	return pool
}

// TestUpdateBodiesTrainIdentically fits a paper-shape model cold, then
// warm over a pool that brings new labels (re-laying the matrices out),
// then replay-sampled, once per kernel choice, and requires bit-identical
// weights, accumulators, biases and probabilities after every fit.
// Training runs thousands of updates through the active set of every
// step, so any rounding difference between the bodies would show here.
func TestUpdateBodiesTrainIdentically(t *testing.T) {
	if avx2Update == nil {
		t.Skipf("only the %s body runs on this build and CPU", Kernel())
	}
	pool := paperShapePool(900, 405, 3)
	probe := make([]textproc.Sparse, 0, 30)
	for i := 0; i < len(pool); i += 30 {
		probe = append(probe, pool[i].Features)
	}
	type fitState struct {
		warm                bool
		w, gsq, bias, gsqB  []float64
		probs               [][]float64
		labels, stride, dim int
	}
	fits := map[string][]fitState{}
	bodies := updateBodies()
	for _, body := range bodies {
		withUpdate(body.fn, func() {
			c := New(Config{Epochs: 3, Seed: 5})
			for i, end := range []int{300, 600, 900} {
				fit := c.Train
				if i == 2 {
					fit = c.TrainAppended
				}
				if err := fit(pool[:end]); err != nil {
					t.Fatal(err)
				}
				st := fitState{
					warm: c.WarmStarted(),
					w:    slices.Clone(c.w), gsq: slices.Clone(c.gsq),
					bias: slices.Clone(c.bias), gsqB: slices.Clone(c.gsqB),
					labels: len(c.labels), stride: c.stride, dim: c.dim,
				}
				for _, f := range probe {
					st.probs = append(st.probs, c.Probs(f))
				}
				fits[body.name] = append(fits[body.name], st)
			}
		})
	}
	want := fits[bodies[0].name]
	if want[0].warm || !want[1].warm || !want[2].warm || want[1].labels <= want[0].labels {
		t.Fatalf("want a cold fit, then warm fits that add labels; got %+v", []bool{want[0].warm, want[1].warm, want[2].warm})
	}
	for _, body := range bodies[1:] {
		for i, got := range fits[body.name] {
			what := fmt.Sprintf("%s fit %d", body.name, i)
			if got.warm != want[i].warm || got.labels != want[i].labels || got.stride != want[i].stride || got.dim != want[i].dim {
				t.Fatalf("%s: shape %d labels, stride %d, dim %d, warm %v; want %d, %d, %d, %v",
					what, got.labels, got.stride, got.dim, got.warm, want[i].labels, want[i].stride, want[i].dim, want[i].warm)
			}
			sameScores(t, what+" weights", got.w, want[i].w)
			sameScores(t, what+" accumulators", got.gsq, want[i].gsq)
			sameScores(t, what+" biases", got.bias, want[i].bias)
			sameScores(t, what+" bias accumulators", got.gsqB, want[i].gsqB)
			for p := range probe {
				sameScores(t, fmt.Sprintf("%s probe %d", what, p), got.probs[p], want[i].probs[p])
			}
		}
	}
}

// BenchmarkAdagradPaperShape times one AdaGrad update at the shape of a
// paper-scale training step: a vector of 123 nonzeros (64 dense features
// plus 59 TF-IDF terms) over 4,496 features, and 24 active classes of 405
// (about 6%, the active set gradCutoff leaves). There is one
// sub-benchmark per update body this build and CPU can run.
func BenchmarkAdagradPaperShape(b *testing.B) {
	const dim, dense, tfidf, nL, nActive = 4496, 64, 59, 405, 24
	rng := rand.New(rand.NewSource(1))
	v := map[int]float64{}
	for i := 0; i < dense; i++ {
		v[i] = rng.NormFloat64()
	}
	for len(v) < dense+tfidf {
		v[dense+rng.Intn(dim-dense)] = rng.Float64()
	}
	ix, vals := vec(v).Raw()
	active := randomActive(rng, nActive, nL)
	ga := make([]float64, nActive)
	for j := range ga {
		ga[j] = rng.Float64() * 0.05
	}
	ga[0] = -0.9 // the target class
	for _, body := range updateBodies() {
		w, gsq := make([]float64, dim*nL), make([]float64, dim*nL)
		for i := range w {
			w[i] = rng.NormFloat64() * 0.01
			gsq[i] = rng.Float64()
		}
		b.Run(body.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body.fn(w, gsq, nL, ix, vals, active, ga, 1e-4, 0.5)
			}
			perCell := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(ix)*nActive)
			b.ReportMetric(perCell, "ns/cell")
		})
	}
}
