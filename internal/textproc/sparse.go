package textproc

import (
	"math"
	"slices"
	"sort"
)

// Sparse is the slice-backed sparse feature vector of the numeric hot path:
// a strictly increasing index slice paired with the nonzero values at those
// indexes. Compared with a map-backed vector, every operation
// is a linear scan (or two-pointer merge) over contiguous memory — no
// hashing, no per-entry allocation, deterministic iteration order for free.
//
// The zero value is the empty vector. Sparse values are immutable by
// convention once built (Scale is the one in-place mutator and is reserved
// for owners that have not shared the vector yet); the engine shares them
// freely across goroutines.
type Sparse struct {
	ix  []int32
	val []float64
}

// NNZ returns the number of stored (nonzero) entries.
func (s Sparse) NNZ() int { return len(s.ix) }

// Index returns the feature index of the i-th stored entry.
func (s Sparse) Index(i int) int { return int(s.ix[i]) }

// Value returns the value of the i-th stored entry.
func (s Sparse) Value(i int) float64 { return s.val[i] }

// Raw exposes the underlying index and value slices for zero-overhead scans
// (the classifier's scoring loop). Callers must treat both as read-only.
func (s Sparse) Raw() ([]int32, []float64) { return s.ix, s.val }

// Get returns the value at feature index idx, or 0 when absent.
func (s Sparse) Get(idx int) float64 {
	i := sort.Search(len(s.ix), func(k int) bool { return int(s.ix[k]) >= idx })
	if i < len(s.ix) && int(s.ix[i]) == idx {
		return s.val[i]
	}
	return 0
}

// MaxIndex returns the largest stored feature index, or -1 when empty.
func (s Sparse) MaxIndex() int {
	if len(s.ix) == 0 {
		return -1
	}
	return int(s.ix[len(s.ix)-1])
}

// Dot returns the inner product, computed as a two-pointer merge over the
// sorted index slices. Dot and Norm convert each product to float64
// explicitly, so no compiler fuses it into an FMA and the sums round alike
// on every architecture.
func (s Sparse) Dot(o Sparse) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(s.ix) && j < len(o.ix) {
		switch {
		case s.ix[i] < o.ix[j]:
			i++
		case s.ix[i] > o.ix[j]:
			j++
		default:
			sum += float64(s.val[i] * o.val[j])
			i++
			j++
		}
	}
	return sum
}

// Norm returns the L2 norm.
func (s Sparse) Norm() float64 {
	var sum float64
	for _, x := range s.val {
		sum += float64(x * x)
	}
	return math.Sqrt(sum)
}

// Scale multiplies every value in place and returns the receiver. Unlike a
// map rebuild this touches only the value slice; callers that discard the
// result pay nothing.
func (s Sparse) Scale(k float64) Sparse {
	for i := range s.val {
		s.val[i] *= k
	}
	return s
}

// AddInto returns the sum of s and o with o's indexes shifted by offset,
// as a freshly backed vector (merge of two sorted runs). When the shifted o
// lies entirely above s — the feature pipeline's dense-prefix + TF-IDF
// concatenation — the merge degenerates to an append and does one
// allocation of exactly the right size.
func (s Sparse) AddInto(o Sparse, offset int) Sparse {
	if o.NNZ() == 0 {
		return Sparse{ix: slices.Clone(s.ix), val: slices.Clone(s.val)}
	}
	lo := int(o.ix[0]) + offset
	if s.NNZ() == 0 || s.MaxIndex() < lo {
		// Disjoint, ordered: concatenate.
		ix := make([]int32, 0, len(s.ix)+len(o.ix))
		val := make([]float64, 0, len(s.val)+len(o.val))
		ix = append(ix, s.ix...)
		val = append(val, s.val...)
		for k, i := range o.ix {
			ix = append(ix, i+int32(offset))
			val = append(val, o.val[k])
		}
		return Sparse{ix: ix, val: val}
	}
	ix := make([]int32, 0, len(s.ix)+len(o.ix))
	val := make([]float64, 0, len(s.val)+len(o.val))
	i, j := 0, 0
	for i < len(s.ix) || j < len(o.ix) {
		var oi int32
		if j < len(o.ix) {
			oi = o.ix[j] + int32(offset)
		}
		switch {
		case j >= len(o.ix) || (i < len(s.ix) && s.ix[i] < oi):
			ix = append(ix, s.ix[i])
			val = append(val, s.val[i])
			i++
		case i >= len(s.ix) || s.ix[i] > oi:
			ix = append(ix, oi)
			val = append(val, o.val[j])
			j++
		default:
			ix = append(ix, s.ix[i])
			val = append(val, s.val[i]+o.val[j])
			i++
			j++
		}
	}
	return Sparse{ix: ix, val: val}
}

// Cosine returns the cosine similarity of two sparse vectors, or 0 when
// either is zero.
func Cosine(a, b Sparse) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// SparseFromDense builds a Sparse view of a dense slice, skipping zeros.
// Indexes are the slice positions; the input is copied, not aliased.
func SparseFromDense(dense []float64) Sparse {
	nnz := 0
	for _, x := range dense {
		if x != 0 {
			nnz++
		}
	}
	ix := make([]int32, 0, nnz)
	val := make([]float64, 0, nnz)
	for i, x := range dense {
		if x != 0 {
			ix = append(ix, int32(i))
			val = append(val, x)
		}
	}
	return Sparse{ix: ix, val: val}
}

// SparseBuilder accumulates (index, value) pairs in any order, with
// duplicate indexes summing, and emits a sorted Sparse. It is the unsorted-
// accumulation entry point the vectorizer and tests use; Reset lets one
// builder serve many documents without reallocating.
type SparseBuilder struct {
	ix  []int32
	val []float64
}

// Add records value at index (accumulated if the index repeats).
func (b *SparseBuilder) Add(index int, value float64) {
	b.ix = append(b.ix, int32(index))
	b.val = append(b.val, value)
}

// Len returns the number of recorded pairs (before duplicate merging).
func (b *SparseBuilder) Len() int { return len(b.ix) }

// Reset clears the builder, keeping capacity.
func (b *SparseBuilder) Reset() {
	b.ix = b.ix[:0]
	b.val = b.val[:0]
}

// Build sorts the accumulated pairs, merges duplicate indexes and drops
// exact zeros, returning the finished vector. The builder is reset.
func (b *SparseBuilder) Build() Sparse {
	n := len(b.ix)
	if n == 0 {
		return Sparse{}
	}
	if !b.sorted() {
		// Indirect sort via a permutation keeps the parallel slices in
		// lockstep without packing into pair structs.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		slices.SortStableFunc(perm, func(a, c int) int {
			return int(b.ix[a]) - int(b.ix[c])
		})
		ix := make([]int32, n)
		val := make([]float64, n)
		for k, p := range perm {
			ix[k] = b.ix[p]
			val[k] = b.val[p]
		}
		b.ix, b.val = ix, val
	}
	// Merge duplicates and drop zeros in one compaction pass.
	ix := make([]int32, 0, n)
	val := make([]float64, 0, n)
	for k := 0; k < n; {
		i := b.ix[k]
		sum := b.val[k]
		k++
		for k < n && b.ix[k] == i {
			sum += b.val[k]
			k++
		}
		if sum != 0 {
			ix = append(ix, i)
			val = append(val, sum)
		}
	}
	b.Reset()
	return Sparse{ix: ix, val: val}
}

func (b *SparseBuilder) sorted() bool {
	for i := 1; i < len(b.ix); i++ {
		if b.ix[i] < b.ix[i-1] {
			return false
		}
	}
	return true
}
