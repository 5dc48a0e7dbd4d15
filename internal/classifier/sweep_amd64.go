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

// sweepAVX2 checks what the assembly trusts, then runs it: a value per
// row, and rows at least as long as the scores.
func sweepAVX2(scores []float64, rows [][]float64, xs []float64) {
	if len(xs) < len(rows) {
		panic(fmt.Sprintf("classifier: sweep of %d rows with %d values", len(rows), len(xs)))
	}
	for k, r := range rows {
		if len(r) < len(scores) {
			panic(fmt.Sprintf("classifier: sweep row %d of %d weights for %d scores", k, len(r), len(scores)))
		}
	}
	sweepAVX2Rows(scores, rows, xs)
}

// sweepAVX2Rows is the AVX2 body of sweepFunc, in sweep_amd64.s. For each
// group of four rows it walks the classes four at a time in YMM registers
// (eight per loop iteration), and the last zero to three one at a time in
// the low lane; a leftover row takes the same walk on its own.
//
// Its scores are bit-identical to sweepGo's. For each class it performs
// the same multiplies and adds on the same operands in the same order:
// VMULPD rounds each product to float64, then VADDPD rounds each sum, and
// it never uses FMA, which would skip the product's rounding. IEEE 754
// fixes the correctly rounded result of every one of these operations,
// and packed AVX, scalar AVX and the SSE2 scalar instructions Go compiles
// sweepGo to all round under the same MXCSR, which Go leaves at
// round-to-nearest without flush-to-zero or denormals-are-zero. Only a
// NaN's payload may differ, when two NaN operands meet.
// TestSweepMatchesGeneric and FuzzScoreSweep pin this.
//
//go:noescape
func sweepAVX2Rows(scores []float64, rows [][]float64, xs []float64)

// updateAVX2 checks what the assembly trusts, then runs it: ga packs one
// gradient per active class, every nonzero has a value, every active
// class is a column below the stride (sgdStep's are below the label
// count, which is at most the stride), and every row holds stride
// weights and a capacity of at least two strides, so its accumulators
// (acc) lie past its weights. The check walks the rows and active once,
// which costs little next to the len(rows)*len(active) cells the kernel
// updates.
func updateAVX2(rows [][]float64, stride int, vals []float64, active []int32, ga []float64, l2, lr float64) {
	if len(ga) != len(active) || len(vals) < len(rows) {
		panic(fmt.Sprintf("classifier: update of %d gradients for %d active classes, %d values for %d rows",
			len(ga), len(active), len(vals), len(rows)))
	}
	if len(rows) == 0 || len(active) == 0 {
		return
	}
	for _, cls := range active {
		if cls < 0 || int(cls) >= stride {
			panic(fmt.Sprintf("classifier: update of class %d at stride %d", cls, stride))
		}
	}
	for k, row := range rows {
		if len(row) < stride || cap(row) < 2*stride {
			panic(fmt.Sprintf("classifier: update of row %d of %d weights and capacity %d at stride %d", k, len(row), cap(row), stride))
		}
	}
	adagradAVX2(rows, stride, vals, active, ga, l2, lr)
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
func adagradAVX2(rows [][]float64, stride int, vals []float64, active []int32, ga []float64, l2, lr float64)

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the OS-enabled processor state components. Call it
// only once CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)
