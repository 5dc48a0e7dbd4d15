package classifier

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/repro/scrutinizer/internal/textproc"
)

// sweepBody is one named body of the score sweep.
type sweepBody struct {
	name string
	fn   sweepFunc
}

// sweepBodies lists the bodies this build and CPU can run: always the Go
// loop, plus the AVX2 kernel where it is available.
func sweepBodies() []sweepBody {
	bodies := []sweepBody{{"go", sweep4Go}}
	if avx2Sweep != nil {
		bodies = append(bodies, sweepBody{"avx2", avx2Sweep})
	}
	return bodies
}

// withSweep runs f with scoreInto using body, then restores the body
// chosen at init.
func withSweep(body sweepFunc, f func()) {
	defer func(prev sweepFunc) { sweep4 = prev }(sweep4)
	sweep4 = body
	f()
}

// refSweep is the unfused reference of a sweep body. Each product is
// explicitly converted to float64, which by the Go spec rounds it before
// the add, so no compiler may fuse it into an FMA: this stays the unfused
// reference under GOAMD64=v3 and on arm64 too.
func refSweep(scores, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64) {
	for j := range scores {
		v := scores[j] + float64(r0[j]*x0)
		v = v + float64(r1[j]*x1)
		v = v + float64(r2[j]*x2)
		scores[j] = v + float64(r3[j]*x3)
	}
}

// sweepSpecials are the values IEEE 754 treats specially: signed zeros,
// subnormals, infinities, values whose products overflow or underflow,
// and NaN.
var sweepSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310, -1.1e-308,
	math.Inf(1), math.Inf(-1),
	1e300, -1e300, 1e-300, -1e-300,
	math.NaN(),
}

// sweepValue draws a normal value most of the time and a special one
// otherwise.
func sweepValue(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return sweepSpecials[rng.Intn(len(sweepSpecials))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
}

// unaligned returns a slice of n values that starts off elements into a
// fresh buffer, so an odd off leaves it off the 16- and 32-byte
// boundaries vector loads prefer.
func unaligned(n, off int) []float64 {
	return make([]float64, n+off)[off:][:n]
}

// sameScores fails unless got equals want bit for bit; a NaN only has to
// meet a NaN, since its payload may depend on the operand order.
func sameScores(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.IsNaN(want[j]) {
			if !math.IsNaN(got[j]) {
				t.Fatalf("%s: class %d = %v, want NaN", what, j, got[j])
			}
			continue
		}
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: class %d = %v (%#x), want %v (%#x)",
				what, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// runSweep applies body to copies of the inputs, at the given offset, and
// returns the scores.
func runSweep(body sweepFunc, scores []float64, rows [4][]float64, xs [4]float64, off int) []float64 {
	n := len(scores)
	s := unaligned(n, off)
	copy(s, scores)
	var r [4][]float64
	for i := range rows {
		r[i] = unaligned(n, off+2*i)
		copy(r[i], rows[i])
	}
	body(s, r[0], r[1], r[2], r[3], xs[0], xs[1], xs[2], xs[3])
	return s
}

// TestSweepMatchesGeneric pins every sweep body bit-identical to the
// unfused reference: label counts 0-9 (every tail length, with and
// without a vector block), 63-65 (one class either side of a block of
// eight) and 405 (the largest paper-scale model); rows at odd offsets;
// values including signed zeros, subnormals, infinities, overflowing
// products and NaN.
func TestSweepMatchesGeneric(t *testing.T) {
	t.Logf("kernel in use: %s", Kernel())
	rng := rand.New(rand.NewSource(20))
	counts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 405}
	for _, body := range sweepBodies() {
		for _, n := range counts {
			for trial := 0; trial < 40; trial++ {
				scores := make([]float64, n)
				var rows [4][]float64
				for j := range scores {
					scores[j] = sweepValue(rng)
				}
				for i := range rows {
					rows[i] = make([]float64, n)
					for j := range rows[i] {
						rows[i][j] = sweepValue(rng)
					}
				}
				var xs [4]float64
				for i := range xs {
					xs[i] = sweepValue(rng)
				}
				off := 1 + 2*(trial%3)
				got := runSweep(body.fn, scores, rows, xs, off)
				want := runSweep(refSweep, scores, rows, xs, off)
				sameScores(t, fmt.Sprintf("%s, %d labels, trial %d", body.name, n, trial), got, want)
			}
		}
	}
}

// FuzzScoreSweep checks every sweep body against the unfused reference on
// arbitrary bit patterns: data holds five float64 per class (the score and
// the four row weights), off misaligns the slices. The seed corpus is in
// testdata/fuzz/FuzzScoreSweep.
func FuzzScoreSweep(f *testing.F) {
	f.Add(make([]byte, 40*9), uint8(1), 1.0, -1.0, 0.5, 2.0)
	f.Fuzz(func(t *testing.T, data []byte, off uint8, x0, x1, x2, x3 float64) {
		n := len(data) / 40
		if n > 1024 {
			n = 1024
		}
		word := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		scores := make([]float64, n)
		var rows [4][]float64
		for i := range rows {
			rows[i] = make([]float64, n)
		}
		for j := 0; j < n; j++ {
			scores[j] = word(5 * j)
			for i := range rows {
				rows[i][j] = word(5*j + 1 + i)
			}
		}
		xs := [4]float64{x0, x1, x2, x3}
		want := runSweep(refSweep, scores, rows, xs, int(off%4))
		for _, body := range sweepBodies() {
			got := runSweep(body.fn, scores, rows, xs, int(off%4))
			sameScores(t, body.name, got, want)
		}
	})
}

// TestSweepBodiesTrainIdentically runs labelGrowthPool through its 8
// barriers once per sweep body and requires bit-identical probabilities
// after every barrier: training reads scoreInto at every step, so any
// rounding difference between the bodies would compound here.
func TestSweepBodiesTrainIdentically(t *testing.T) {
	bodies := sweepBodies()
	if len(bodies) < 2 {
		t.Skipf("only the %s body runs on this build and CPU", Kernel())
	}
	pool := labelGrowthPool()
	probe := make([]textproc.Sparse, 0, 50)
	for i := 0; i < len(pool); i += len(pool) / 50 {
		probe = append(probe, pool[i].Features)
	}
	barriers := make(map[string][][][]float64, len(bodies))
	for _, body := range bodies {
		withSweep(body.fn, func() {
			c := New(Config{Epochs: 6, Seed: 1})
			for end := 100; end <= len(pool); end += 100 {
				if err := c.Train(pool[:end]); err != nil {
					t.Fatal(err)
				}
				var probs [][]float64
				for _, f := range probe {
					probs = append(probs, c.Probs(f))
				}
				barriers[body.name] = append(barriers[body.name], probs)
			}
		})
	}
	want := barriers[bodies[0].name]
	for _, body := range bodies[1:] {
		for b, probs := range barriers[body.name] {
			for i := range probs {
				sameScores(t, fmt.Sprintf("%s barrier %d probe %d", body.name, b, i), probs[i], want[b][i])
			}
		}
	}
}

// BenchmarkScorePaperShape times one scoreInto at the shape of the
// paper-scale models: 4,496 features, vectors of 123 nonzeros (64 dense
// features plus 59 TF-IDF terms), 100 and 405 labels. There is one
// sub-benchmark per sweep body this build and CPU can run.
func BenchmarkScorePaperShape(b *testing.B) {
	const dim, dense, tfidf = 4496, 64, 59
	rng := rand.New(rand.NewSource(1))
	v := map[int]float64{}
	for i := 0; i < dense; i++ {
		v[i] = rng.NormFloat64()
	}
	for len(v) < dense+tfidf {
		v[dense+rng.Intn(dim-dense)] = rng.Float64()
	}
	f := vec(v)
	for _, nL := range []int{100, 405} {
		c := New(Config{})
		c.labels = make([]string, nL)
		c.dim, c.stride = dim, nL
		c.w = make([]float64, dim*nL)
		for i := range c.w {
			c.w[i] = rng.NormFloat64() * 0.01
		}
		c.bias = make([]float64, nL)
		scores := make([]float64, nL)
		for _, body := range sweepBodies() {
			b.Run(fmt.Sprintf("labels=%d/%s", nL, body.name), func(b *testing.B) {
				withSweep(body.fn, func() {
					for i := 0; i < b.N; i++ {
						c.scoreInto(f, scores)
					}
				})
				perProduct := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64((dense+tfidf)*nL)
				b.ReportMetric(perProduct, "ns/product")
			})
		}
	}
}
