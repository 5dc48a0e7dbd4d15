package session

import (
	"context"
	"testing"
	"time"

	"github.com/repro/scrutinizer/internal/core"
)

// BenchmarkSessionCreate measures steady-state session creation: the
// first-batch assessment and plan of every claim (warm engine caches, as
// on a serving daemon that hosts many sessions over one corpus).
func BenchmarkSessionCreate(b *testing.B) {
	w := testWorld(b, 40)
	e := testEngine(b, w)
	m := NewManager(Config{})
	opts := Options{Verify: core.VerifyConfig{BatchSize: 10, Checkers: 3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := m.Create(context.Background(), e, w.Document, opts)
		if err != nil {
			b.Fatal(err)
		}
		m.Remove(s.ID())
	}
}

// BenchmarkSessionAnswerPump measures the interactive hot path: a
// simulated crowd answering every queued question of a session to
// completion, including the batch-boundary retraining the last answer of
// each batch triggers. Engine construction is excluded.
func BenchmarkSessionAnswerPump(b *testing.B) {
	w := testWorld(b, 30)
	opts := Options{Verify: core.VerifyConfig{BatchSize: 10, Checkers: 3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := testEngine(b, w) // retraining mutates the engine: one per run
		team := testTeam(b)
		m := NewManager(Config{})
		s, err := m.Create(context.Background(), e, w.Document, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		answers := 0
		oracles := map[int]core.Oracle{}
		for !s.Done() {
			for _, q := range s.Questions() {
				for next := &q; next != nil; {
					a := crowdAnswer(b, e, w, oracles, team, *next)
					var err error
					next, err = s.Answer(context.Background(), a)
					if err != nil {
						b.Fatal(err)
					}
					answers++
				}
			}
		}
		b.ReportMetric(float64(answers), "answers/op")
	}
}

// BenchmarkSessionEvict measures the inline TTL sweep over a populated
// registry — the cost every manager operation pays to keep parked
// sessions from accumulating. Each op is one Stats call that finds 16
// expired sessions and evicts them all.
//
// Creating a session runs its first batch selection, which costs far more
// than the sweep, so the 16 sessions are created once and re-registered
// in fresh managers, a chunk of managers at a time outside the timer:
// stopping the timer per op would cost more than the op and keep b.N, and
// the benchmark's wall time, huge.
func BenchmarkSessionEvict(b *testing.B) {
	const perOp, chunk = 16, 1024
	w := testWorld(b, 20)
	e := testEngine(b, w)
	clock := &fakeClock{now: time.Unix(1000, 0)}
	cfg := Config{TTL: time.Minute, Clock: clock.Now}
	src := NewManager(cfg)
	opts := Options{Verify: core.VerifyConfig{BatchSize: 10, Checkers: 3}}
	for j := 0; j < perOp; j++ {
		if _, err := src.Create(context.Background(), e, w.Document, opts); err != nil {
			b.Fatal(err)
		}
	}
	clock.Advance(2 * time.Minute) // every session is now past its TTL
	mgrs := make([]*Manager, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(chunk, b.N-done)
		b.StopTimer()
		for k := range mgrs[:n] {
			m := NewManager(cfg)
			for id, s := range src.sessions {
				m.sessions[id] = s
			}
			mgrs[k] = m
		}
		b.StartTimer()
		for _, m := range mgrs[:n] {
			if st := m.Stats(); st.Active != 0 {
				b.Fatalf("sweep left %d sessions", st.Active)
			}
		}
		done += n
	}
}
