package classifier

import "math"

// updateFunc is a body of sgdStep's AdaGrad update over the active set.
// rows[k] is the row of the example's nonzero k: its weights w =
// rows[k][:stride] and its accumulators g = acc(rows[k], stride). For
// every nonzero k, in order, and every active class cls = active[j], it
// updates the row's cells cls as
//
//	grad   = (ga[j]*vals[k]) + (l2*w[cls])
//	g[cls] = g[cls] + grad*grad
//	w[cls] = w[cls] - (lr*grad) / (sqrt(g[cls]) + 1e-8)
//
// with every product, sum, square root and quotient rounded to float64
// on its own, in exactly that order. ga holds the active classes'
// gradients packed, ga[j] for active[j]; the active classes are distinct.
type updateFunc func(rows [][]float64, stride int, vals []float64, active []int32, ga []float64, l2, lr float64)

// adagradUpdate is the body sgdStep uses, picked once at init with the
// score sweep's body: the AVX2 kernel when this build has it and the CPU
// and OS support it, adagradGo otherwise. Both bodies produce
// bit-identical weights and accumulators (see adagradAVX2), so the choice
// changes speed only.
var adagradUpdate = pickUpdate()

func pickUpdate() updateFunc {
	if avx2Update != nil {
		return avx2Update
	}
	return adagradGo
}

// adagradGo is the portable body. The explicit float64 conversions round
// each product before it is added, which by the Go spec forbids fusing a
// multiply and an add into one FMA (CI greps the arm64 assembly), so the
// loop computes the same updates on every architecture, and the same
// updates as the assembly kernel.
func adagradGo(rows [][]float64, stride int, vals []float64, active []int32, ga []float64, l2, lr float64) {
	ga = ga[:len(active)]
	for k, row := range rows {
		x := vals[k]
		wrow, grow := row[:stride], acc(row, stride)
		for j, cls := range active {
			grad := float64(ga[j]*x) + float64(l2*wrow[cls])
			grow[cls] += float64(grad * grad)
			wrow[cls] -= lr * grad / (math.Sqrt(grow[cls]) + 1e-8)
		}
	}
}
