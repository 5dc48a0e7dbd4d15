package classifier

// sweepFunc is a body of the four-row score sweep: for every class j it
// computes
//
//	scores[j] = (((scores[j] + r0[j]*x0) + r1[j]*x1) + r2[j]*x2) + r3[j]*x3
//
// with every product and every sum rounded to float64 on its own, in
// exactly that order. The rows must be at least len(scores) long.
type sweepFunc func(scores, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64)

// sweep4 is the body scoreInto uses, picked once at init: the AVX2 kernel
// when this build has it and the CPU and OS support it, sweep4Go
// otherwise. Both bodies produce bit-identical scores (see sweep4AVX2), so
// the choice changes speed only.
var sweep4 = pickSweep()

func pickSweep() sweepFunc {
	if avx2Sweep != nil {
		return avx2Sweep
	}
	return sweep4Go
}

// Kernel names the score-sweep body this process uses: "avx2" for the
// amd64 assembly kernel, "go" for the portable loop (other architectures,
// CPUs without AVX2, and -race builds, whose detector cannot see memory
// accesses made from assembly).
func Kernel() string {
	if avx2Sweep != nil {
		return "avx2"
	}
	return "go"
}

// sweep4Go is the portable body. The explicit float64 conversions round
// each product before it is added, which by the Go spec forbids fusing a
// multiply and an add into one FMA: the loop computes the same unfused
// sums on every architecture and under every GOAMD64 level, and so the
// same sums as the assembly kernel.
func sweep4Go(scores, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64) {
	// Reslicing to len(scores) lets the compiler drop the bounds checks.
	n := len(scores)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for j, s := range scores {
		v := s + float64(r0[j]*x0)
		v += float64(r1[j] * x1)
		v += float64(r2[j] * x2)
		scores[j] = v + float64(r3[j]*x3)
	}
}
