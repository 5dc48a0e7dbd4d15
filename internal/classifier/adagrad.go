package classifier

import "math"

// updateFunc is a body of sgdStep's AdaGrad update over the active set.
// For every nonzero k of the example, in order, and every active class
// cls = active[j], it updates the cell i = ix[k]*stride + cls as
//
//	grad   = (ga[j]*vals[k]) + (l2*w[i])
//	gsq[i] = gsq[i] + grad*grad
//	w[i]   = w[i] - (lr*grad) / (sqrt(gsq[i]) + 1e-8)
//
// with every product, sum, square root and quotient rounded to float64
// on its own, in exactly that order. ga holds the active classes'
// gradients packed, ga[j] for active[j]; the active classes are distinct.
type updateFunc func(w, gsq []float64, stride int, ix []int32, vals []float64, active []int32, ga []float64, l2, lr float64)

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
func adagradGo(w, gsq []float64, stride int, ix []int32, vals []float64, active []int32, ga []float64, l2, lr float64) {
	ga = ga[:len(active)]
	for k, fi := range ix {
		x := vals[k]
		base := int(fi) * stride
		wrow := w[base : base+stride]
		grow := gsq[base : base+stride]
		for j, cls := range active {
			grad := float64(ga[j]*x) + float64(l2*wrow[cls])
			grow[cls] += float64(grad * grad)
			wrow[cls] -= lr * grad / (math.Sqrt(grow[cls]) + 1e-8)
		}
	}
}
