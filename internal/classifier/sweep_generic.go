//go:build !amd64 || race

package classifier

// avx2Sweep is nil: this build has no assembly kernel. Race builds use
// the Go body on amd64 too, because the race detector does not see memory
// accesses made from assembly.
var avx2Sweep sweepFunc
