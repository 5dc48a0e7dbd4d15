package classifier

// sweepFunc is a body of the score sweep. It adds every row's products
// to the scores, the rows in groups of four and then each leftover row on
// its own, so that for every class j
//
//	scores[j] = (((scores[j] + r0[j]*x0) + r1[j]*x1) + r2[j]*x2) + r3[j]*x3
//
// for each group of rows r0-r3 with values x0-x3, and
// scores[j] = scores[j] + r[j]*x for a leftover row r, with every product
// and every sum rounded to float64 on its own, in exactly that order: each
// score adds its products one at a time in row order, so the grouping
// never changes a bit of it. The rows must be at least len(scores) long,
// and xs holds one value per row.
type sweepFunc func(scores []float64, rows [][]float64, xs []float64)

// sweep is the body scoreInto uses, picked once at init: the AVX2 kernel
// when this build has it and the CPU and OS support it, sweepGo
// otherwise. Both bodies produce bit-identical scores (see
// sweepAVX2Rows), so the choice changes speed only.
var sweep = pickSweep()

func pickSweep() sweepFunc {
	if avx2Sweep != nil {
		return avx2Sweep
	}
	return sweepGo
}

// Kernel names the bodies this process uses for both classifier kernels,
// the score sweep and the AdaGrad update, which are always picked
// together: "avx2" for the amd64 assembly kernels, "go" for the portable
// loops (other architectures, CPUs without AVX2, and -race builds, whose
// detector cannot see memory accesses made from assembly).
func Kernel() string {
	if avx2Sweep != nil {
		return "avx2"
	}
	return "go"
}

// sweepGo is the portable body. The explicit float64 conversions round
// each product before it is added, which by the Go spec forbids fusing a
// multiply and an add into one FMA: the loop computes the same unfused
// sums on every architecture and under every GOAMD64 level, and so the
// same sums as the assembly kernel.
func sweepGo(scores []float64, rows [][]float64, xs []float64) {
	// Reslicing to len(scores) lets the compiler drop the bounds checks.
	n := len(scores)
	xs = xs[:len(rows)]
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		r0, r1, r2, r3 := rows[k][:n], rows[k+1][:n], rows[k+2][:n], rows[k+3][:n]
		x0, x1, x2, x3 := xs[k], xs[k+1], xs[k+2], xs[k+3]
		for j, s := range scores {
			v := s + float64(r0[j]*x0)
			v += float64(r1[j] * x1)
			v += float64(r2[j] * x2)
			scores[j] = v + float64(r3[j]*x3)
		}
	}
	for ; k < len(rows); k++ {
		r, x := rows[k][:n], xs[k]
		for j, wv := range r {
			scores[j] += float64(wv * x)
		}
	}
}
