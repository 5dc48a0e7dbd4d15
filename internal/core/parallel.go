package core

import (
	"context"
	"runtime"
	"sync"

	"github.com/repro/scrutinizer/internal/claims"
)

// DefaultParallelism is the fan-out Verify uses when callers ask for
// "as parallel as the hardware allows". It follows GOMAXPROCS rather than
// the physical CPU count so runtime-limited environments (container
// quotas, `go test -cpu N`) get the fan-out they actually scheduled.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// defaultFormulaParallelism bounds the per-claim Algorithm 2 formula
// fan-out: formula lists are short (top-k predictions), so a small cap
// avoids spawning workers that would idle immediately.
func defaultFormulaParallelism() int {
	if p := runtime.GOMAXPROCS(0); p < 4 {
		return p
	}
	return 4
}

// runPool invokes fn(0..n-1) across at most parallelism goroutines and
// waits for completion. Workers are capped at the job count — idle
// goroutines are never spawned — and a single job (or parallelism <= 1)
// runs as a plain call on the caller's goroutine with no channel
// round-trip. fn must write results into its own index of a pre-sized
// slice, which keeps output ordering independent of goroutine
// interleaving.
func runPool(n, parallelism int, fn func(i int)) {
	if parallelism > n {
		parallelism = n
	}
	if n == 1 {
		fn(0)
		return
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// assessAll scores cost and utility for every claim (the scheduler inputs).
// assessMany fills the assessment cache for the whole round first — one
// dense scoring pass per property kind over every stale claim — so the
// per-claim reads below are cache hits. This is the only place
// Observer.BatchScored fires. Results come back indexed like ids.
//
// Once ctx is cancelled the per-claim pass skips the remaining claims
// (their scores are left zero); the caller (selectBatch) re-checks the
// context right after and discards the partial scan, so a dead request
// never pays for a full document scoring sweep.
func (e *Engine) assessAll(ctx context.Context, ids []int, pool map[int]*claims.Claim, parallelism int) ([]float64, []float64) {
	cs := make([]*claims.Claim, len(ids))
	for i, id := range ids {
		cs[i] = pool[id]
	}
	if n := e.assessMany(cs, parallelism); n > 0 {
		obsBatchScored(n)
	}
	costs := make([]float64, len(ids))
	utilities := make([]float64, len(ids))
	done := ctx.Done()
	runPool(len(ids), parallelism, func(i int) {
		if done != nil {
			select {
			case <-done:
				return
			default:
			}
		}
		costs[i], utilities[i] = e.Assess(pool[ids[i]])
	})
	return costs, utilities
}
