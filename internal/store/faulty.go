package store

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected is the failure surfaced by a Faulty store once its write
// budget is exhausted. Crash-recovery tests match it to know the cut was
// the injected one and not a real bug.
var ErrInjected = errors.New("store: injected fault")

// Faulty wraps a Store and injects the failure modes the chaos harness
// needs: exhausting a write budget (simulating a crash), failing reads
// (simulating a corrupt or unreachable journal during recovery), and
// adding latency to every operation (simulating a slow disk, which is how
// tests hold a daemon in the "recovering" state long enough to probe it).
// With torn-write mode on, the cut append first writes a deliberately
// truncated frame to the underlying journal — the on-disk shape of a
// process dying mid-write — so recovery also has to exercise tail
// truncation.
type Faulty struct {
	inner Store

	failReads bool
	latency   time.Duration

	mu        sync.Mutex
	remaining int
	torn      bool
	tripped   bool
}

// FaultPlan configures a Faulty store. The zero value injects nothing
// except an immediately-exhausted write budget; set FailAppendsAfter to a
// large value for a write-healthy store with read or latency faults only.
type FaultPlan struct {
	// FailAppendsAfter lets this many journal appends succeed before every
	// write fails with ErrInjected.
	FailAppendsAfter int
	// Torn makes the first failing append leave a truncated frame in the
	// underlying journal before reporting the fault.
	Torn bool
	// FailReads makes Replay fail with ErrInjected — a recovery-time fault
	// (a corrupt or unreachable journal) rather than a write-time one.
	FailReads bool
	// Latency is added to every store operation, reads included. Recovery
	// replay pays it per record, which is what keeps a booting daemon
	// not-ready long enough for readiness-probe tests to observe it.
	Latency time.Duration
}

// tornWriter is implemented by stores that can persist a torn journal tail
// on demand (File does; Memory has no disk to tear).
type tornWriter interface {
	appendTorn(rec *Record) error
}

// NewFaulty wraps inner so the first failAfter journal appends succeed and
// every write after that fails with ErrInjected. If torn is true, the
// failing append leaves a truncated frame in the underlying journal before
// reporting the fault.
func NewFaulty(inner Store, failAfter int, torn bool) *Faulty {
	return NewFaultyPlan(inner, FaultPlan{FailAppendsAfter: failAfter, Torn: torn})
}

// NewFaultyPlan wraps inner with the full fault plan.
func NewFaultyPlan(inner Store, plan FaultPlan) *Faulty {
	return &Faulty{
		inner:     inner,
		remaining: plan.FailAppendsAfter,
		torn:      plan.Torn,
		failReads: plan.FailReads,
		latency:   plan.Latency,
	}
}

// delay sleeps the configured operation latency.
func (s *Faulty) delay() {
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
}

// Tripped reports whether the injected fault has fired.
func (s *Faulty) Tripped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tripped
}

func (s *Faulty) Append(rec *Record) error {
	s.delay()
	s.mu.Lock()
	if s.remaining > 0 {
		s.remaining--
		s.mu.Unlock()
		return s.inner.Append(rec)
	}
	first := !s.tripped
	s.tripped = true
	torn := s.torn && first
	s.mu.Unlock()
	if torn {
		if tw, ok := s.inner.(tornWriter); ok {
			if err := tw.appendTorn(rec); err != nil {
				return fmt.Errorf("%w (torn-write injection failed: %v)", ErrInjected, err)
			}
		}
	}
	return fmt.Errorf("%w: journal append", ErrInjected)
}

// Replay pays the configured latency once per record, not once per call:
// a slow disk is slow for every frame, and per-record delay is what lets
// tests hold a recovering daemon in the not-ready state deterministically.
func (s *Faulty) Replay(fn func(*Record) error) error {
	if s.failReads {
		return fmt.Errorf("%w: journal replay", ErrInjected)
	}
	return s.inner.Replay(func(rec *Record) error {
		s.delay()
		return fn(rec)
	})
}

func (s *Faulty) Stats() Stats {
	st := s.inner.Stats()
	st.Backend = "faulty(" + st.Backend + ")"
	return st
}

func (s *Faulty) Close() error { return s.inner.Close() }
