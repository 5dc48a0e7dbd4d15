package textproc

import (
	"math"
	"sort"
)

// Vector is the map-backed reference sparse vector: index -> weight. It is
// the executable specification of the sparse-vector semantics — the
// property-based equivalence tests in sparse_test.go check every Sparse
// operation against it — and a convenient literal syntax
// (Vector{...}.Sparse()) in this package's tests.
type Vector map[int]float64

// Dot returns the inner product of two sparse vectors.
func (v Vector) Dot(o Vector) float64 {
	a, b := v, o
	if len(b) < len(a) {
		a, b = b, a
	}
	var s float64
	for i, x := range a {
		if y, ok := b[i]; ok {
			s += float64(x * y)
		}
	}
	return s
}

// Norm returns the L2 norm.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// Scale multiplies every weight in place and returns v.
func (v Vector) Scale(k float64) Vector {
	for i := range v {
		v[i] *= k
	}
	return v
}

// AddInto adds o (shifted by offset) into v.
func (v Vector) AddInto(o Vector, offset int) {
	for i, x := range o {
		v[i+offset] += x
	}
}

// Indices returns the nonzero indexes sorted ascending (deterministic
// iteration for tests and serialisation).
func (v Vector) Indices() []int {
	out := make([]int, 0, len(v))
	for i := range v {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// CosineSimilarity returns the cosine of the angle between two map-backed
// reference vectors, or 0 if either is zero; the reference for Cosine.
func CosineSimilarity(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// Map converts to the map-backed reference representation.
func (s Sparse) Map() Vector {
	m := make(Vector, len(s.ix))
	for k, i := range s.ix {
		m[int(i)] = s.val[k]
	}
	return m
}

// Sparse converts the map-backed reference Vector into its slice-backed
// equivalent (sorted, zeros dropped).
func (v Vector) Sparse() Sparse {
	var b SparseBuilder
	for i, x := range v {
		b.Add(i, x)
	}
	return b.Build()
}
