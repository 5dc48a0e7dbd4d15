//go:build !race

package classifier

import "fmt"

// avx2Sweep and avx2Update are the AVX2 bodies of the score sweep and the
// AdaGrad update, or both nil when the CPU or the OS lacks AVX2: one
// hasAVX2 call picks both, so Kernel names the choice for both.
var avx2Sweep, avx2Update = func() (sweepFunc, updateFunc) {
	if hasAVX2() {
		return sweepAVX2, updateAVX2
	}
	return nil, nil
}()

// hasAVX2 reports whether AVX2 instructions may run: the CPU has AVX and
// OSXSAVE (CPUID.1:ECX bits 28 and 27), the OS saves the XMM and YMM
// register state on context switches (XCR0 bits 1 and 2), and the CPU has
// AVX2 (CPUID.7.0:EBX bit 5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const avx, osxsave = 1 << 28, 1 << 27
	if ecx1&avx == 0 || ecx1&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// sweepAVX2 checks the row lengths the assembly trusts, then runs it.
func sweepAVX2(scores, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64) {
	n := len(scores)
	if len(r0) < n || len(r1) < n || len(r2) < n || len(r3) < n {
		panic(fmt.Sprintf("classifier: sweep rows of %d, %d, %d, %d weights for %d scores",
			len(r0), len(r1), len(r2), len(r3), n))
	}
	sweep4AVX2(scores, r0, r1, r2, r3, x0, x1, x2, x3)
}

// sweep4AVX2 is the AVX2 body of sweepFunc, in sweep_amd64.s. It walks the
// classes four at a time in YMM registers (eight per loop iteration), and
// the last zero to three classes one at a time in the low lane.
//
// Its scores are bit-identical to sweep4Go's. For each class it performs
// the same four multiplies and four adds on the same operands in the same
// order: VMULPD rounds each product to float64, then VADDPD rounds each
// sum, and it never uses FMA, which would skip the product's rounding.
// IEEE 754 fixes the correctly rounded result of every one of these
// operations, and packed AVX, scalar AVX and the SSE2 scalar instructions
// Go compiles sweep4Go to all round under the same MXCSR, which Go
// leaves at round-to-nearest without flush-to-zero or
// denormals-are-zero. Only a NaN's payload may differ, when two NaN
// operands meet. TestSweepMatchesGeneric and FuzzScoreSweep pin this.
//
//go:noescape
func sweep4AVX2(scores, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64)

// updateAVX2 checks what the assembly trusts, then runs it: ga packs one
// gradient per active class, every active class is a column below the
// stride (sgdStep's are below the label count, which is at most the
// stride), and every nonzero's row ix[k] lies wholly inside both w and
// gsq. The check walks ix and active once, which costs little next to the
// len(ix)*len(active) cells the kernel updates.
func updateAVX2(w, gsq []float64, stride int, ix []int32, vals []float64, active []int32, ga []float64, l2, lr float64) {
	if len(ga) != len(active) || len(vals) < len(ix) {
		panic(fmt.Sprintf("classifier: update of %d gradients for %d active classes, %d values for %d indexes",
			len(ga), len(active), len(vals), len(ix)))
	}
	if len(ix) == 0 || len(active) == 0 {
		return
	}
	if stride <= 0 {
		panic(fmt.Sprintf("classifier: update with stride %d", stride))
	}
	for _, cls := range active {
		if uint(cls) >= uint(stride) {
			panic(fmt.Sprintf("classifier: update of class %d at stride %d", cls, stride))
		}
	}
	rows := min(len(w), len(gsq)) / stride
	for _, fi := range ix {
		if uint(fi) >= uint(rows) {
			panic(fmt.Sprintf("classifier: update of row %d in a matrix of %d rows", fi, rows))
		}
	}
	adagradAVX2(w, gsq, stride, ix, vals, active, ga, l2, lr)
}

// adagradAVX2 is the AVX2 body of updateFunc, in adagrad_amd64.s. For each
// nonzero of the example it walks the active classes four at a time in
// YMM registers, and the last zero to three one at a time in the low
// lane. The four classes' weights and accumulators are loaded with scalar
// inserts and stored with scalar extracts: about 6% of the classes are
// active, too scattered for whole-row vectors, and a VGATHERDPD load was
// three times slower than the Go loop.
//
// Its weights and accumulators are bit-identical to adagradGo's. For each
// cell it performs the same three multiplies, three adds, one square
// root, one divide and one subtract on the same operands in the same
// order. VMULPD, VADDPD, VSUBPD, VSQRTPD and VDIVPD each round their
// result to float64 exactly like the SSE2 MULSD, ADDSD, SUBSD, SQRTSD
// (math.Sqrt) and DIVSD Go compiles adagradGo to, because IEEE 754 fixes
// the correctly rounded result of each of these operations and all of
// them run under the MXCSR Go leaves at round-to-nearest without
// flush-to-zero or denormals-are-zero. It never uses FMA, which would
// skip a product's rounding. The four lanes of an iteration update four
// distinct columns (the active classes are distinct), so no lane reads a
// value another lane writes, and each cell sees its rows in the order
// adagradGo visits them. Only a NaN's payload may differ, when two NaN
// operands meet. TestUpdateMatchesGeneric, FuzzAdagradUpdate and
// TestUpdateBodiesTrainIdentically pin this.
//
//go:noescape
func adagradAVX2(w, gsq []float64, stride int, ix []int32, vals []float64, active []int32, ga []float64, l2, lr float64)

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the OS-enabled processor state components. Call it
// only once CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)
