//go:build !amd64 || race

package classifier

// avx2Sweep and avx2Update are nil: this build has no assembly kernels.
// Race builds use the Go bodies on amd64 too, because the race detector
// does not see memory accesses made from assembly.
var (
	avx2Sweep  sweepFunc
	avx2Update updateFunc
)
