//go:build !race

package classifier

import "fmt"

// avx2Sweep is the AVX2 body, or nil when the CPU or the OS lacks AVX2.
var avx2Sweep sweepFunc = func() sweepFunc {
	if hasAVX2() {
		return sweepAVX2
	}
	return nil
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

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the OS-enabled processor state components. Call it
// only once CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)
