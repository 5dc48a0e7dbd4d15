package session

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/sim"
	"github.com/repro/scrutinizer/internal/worldgen"
)

const testSeed = 17

func testWorld(t testing.TB, numClaims int) *worldgen.World {
	t.Helper()
	cfg := worldgen.SmallScale()
	cfg.NumClaims = numClaims
	cfg.NumSections = 4
	w, err := worldgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testEngine(t testing.TB, w *worldgen.World) *core.Engine {
	t.Helper()
	e, err := sim.BuildEngine(w, sim.StudyCostModel(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testTeam(t testing.TB) *crowd.Team {
	t.Helper()
	team, err := crowd.NewTeam("W", 3, 0.97, testSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	return team
}

// crowdAnswer computes the simulated crowd's answer to one session
// question, using the same per-claim team views and ground-truth
// annotations as the synchronous core.Verify driver.
func crowdAnswer(t testing.TB, e *core.Engine, w *worldgen.World, oracles map[int]core.Oracle, team *crowd.Team, q Question) Answer {
	t.Helper()
	oracle := oracles[q.ClaimID]
	if oracle == nil {
		var err error
		oracle, err = e.NewTeamOracle(team.ForClaim(q.ClaimID))
		if err != nil {
			t.Fatal(err)
		}
		oracles[q.ClaimID] = oracle
	}
	var c *claims.Claim
	for _, cl := range w.Document.Claims {
		if cl.ID == q.ClaimID {
			c = cl
			break
		}
	}
	if c == nil {
		t.Fatalf("question for unknown claim %d", q.ClaimID)
	}
	var value string
	var secs float64
	if q.Screen == "final" {
		value, secs = oracle.AnswerFinal(c, q.Candidates)
	} else {
		var kind core.PropertyKind
		switch q.Screen {
		case "relation":
			kind = core.PropRelation
		case "key":
			kind = core.PropKey
		case "attribute":
			kind = core.PropAttr
		case "formula":
			kind = core.PropFormula
		default:
			t.Fatalf("unknown screen %q", q.Screen)
		}
		opts := make([]planner.Option, len(q.Options))
		for i, o := range q.Options {
			opts[i] = planner.Option{Value: o.Value, Prob: o.Prob}
		}
		value, secs = oracle.AnswerProperty(c, kind, opts)
	}
	return Answer{QuestionID: q.ID, ClaimID: q.ClaimID, Value: value, Seconds: secs}
}

// pumpSession answers every pending question until the session is done,
// using the simulated crowd. Questions of one polling round are answered
// across goroutines to exercise the concurrent answer path.
func pumpSession(t testing.TB, s *Session, e *core.Engine, w *worldgen.World, team *crowd.Team, concurrent bool) {
	t.Helper()
	oracles := map[int]core.Oracle{}
	var mu sync.Mutex // guards oracles under concurrent pumping
	for !s.Done() {
		qs := s.Questions()
		if len(qs) == 0 {
			t.Fatal("session not done but no pending questions")
		}
		if !concurrent {
			for _, q := range qs {
				// Follow each claim's question chain via the answer's
				// next-question return, like an attentive checker.
				for next := &q; next != nil; {
					a := crowdAnswer(t, e, w, oracles, team, *next)
					var err error
					next, err = s.Answer(context.Background(), a)
					if err != nil {
						t.Fatalf("answer %v: %v", a.QuestionID, err)
					}
				}
			}
			continue
		}
		var wg sync.WaitGroup
		for _, q := range qs {
			wg.Add(1)
			go func(q Question) {
				defer wg.Done()
				for next := &q; next != nil; {
					mu.Lock()
					a := crowdAnswer(t, e, w, oracles, team, *next)
					mu.Unlock()
					var err error
					next, err = s.Answer(context.Background(), a)
					if err != nil {
						t.Errorf("answer %v: %v", a.QuestionID, err)
						return
					}
				}
			}(q)
		}
		wg.Wait()
	}
}

// TestSessionEquivalentToVerify is the pinned equivalence of the control
// inversion: a simulated crowd pumping the session API — concurrently,
// under -race — yields verdicts, crowd seconds and accuracy bit-identical
// to the synchronous core.Verify loop for the same seed.
func TestSessionEquivalentToVerify(t *testing.T) {
	w := testWorld(t, 40)
	vc := core.VerifyConfig{BatchSize: 9, SectionReadCost: 20}

	refEngine := testEngine(t, w)
	refTeam := testTeam(t)
	vcRef := vc
	ref, err := refEngine.Verify(context.Background(), w.Document, refTeam, vcRef)
	if err != nil {
		t.Fatal(err)
	}

	for _, concurrent := range []bool{false, true} {
		e := testEngine(t, w)
		team := testTeam(t)
		m := NewManager(Config{})
		opts := Options{Verify: vc}
		opts.Verify.Checkers = team.Size()
		s, err := m.Create(context.Background(), e, w.Document, opts)
		if err != nil {
			t.Fatal(err)
		}
		pumpSession(t, s, e, w, team, concurrent)

		rep := s.Report()
		if !rep.Done {
			t.Fatal("session pumped dry but not done")
		}
		if rep.Seconds != ref.Seconds {
			t.Fatalf("concurrent=%v: seconds = %v, want %v", concurrent, rep.Seconds, ref.Seconds)
		}
		if rep.Batches != ref.Batches {
			t.Fatalf("concurrent=%v: batches = %d, want %d", concurrent, rep.Batches, ref.Batches)
		}
		if len(rep.Outcomes) != len(ref.Outcomes) {
			t.Fatalf("concurrent=%v: outcomes = %d, want %d", concurrent, len(rep.Outcomes), len(ref.Outcomes))
		}
		for i, o := range rep.Outcomes {
			r := ref.Outcomes[i]
			if o.ClaimID != r.ClaimID || o.Verdict != r.Verdict || o.Seconds != r.Seconds ||
				o.Value != r.Value || o.Screens != r.Screens {
				t.Fatalf("concurrent=%v: outcome %d = %+v, want %+v", concurrent, i, o, r)
			}
		}
		if want := core.Accuracy(w.Document, ref.Outcomes); rep.Accuracy != want {
			t.Fatalf("concurrent=%v: accuracy = %v, want %v", concurrent, rep.Accuracy, want)
		}
	}
}

// TestParkedSessionHoldsNoGoroutines asserts the zero-goroutine parking
// contract: creating a session and answering part of its questions leaves
// no goroutine behind while the session waits for the next answer.
func TestParkedSessionHoldsNoGoroutines(t *testing.T) {
	w := testWorld(t, 25)
	e := testEngine(t, w)
	team := testTeam(t)

	before := runtime.NumGoroutine()
	m := NewManager(Config{TTL: time.Hour})
	s, err := m.Create(context.Background(), e, w.Document, Options{Verify: core.VerifyConfig{BatchSize: 8, Checkers: team.Size()}})
	if err != nil {
		t.Fatal(err)
	}
	// Answer a handful of questions, then park.
	oracles := map[int]core.Oracle{}
	qs := s.Questions()
	for _, q := range qs[:min(3, len(qs))] {
		if _, err := s.Answer(context.Background(), crowdAnswer(t, e, w, oracles, team, q)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Done() {
		t.Fatal("session unexpectedly finished")
	}

	// Transient goroutines from batch assessment pools exit on their
	// own; give the scheduler a moment before counting.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before || time.Now().After(deadline) {
			if n > before {
				t.Fatalf("parked session holds goroutines: %d before, %d after", before, n)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSnapshotRestore parks a half-answered session, snapshots it,
// replays the snapshot on a freshly built engine and finishes both; the
// restored session must be bit-identical to the original.
func TestSnapshotRestore(t *testing.T) {
	w := testWorld(t, 30)
	vc := core.VerifyConfig{BatchSize: 7, SectionReadCost: 10, Checkers: 3}

	e1 := testEngine(t, w)
	team1 := testTeam(t)
	m1 := NewManager(Config{})
	s1, err := m1.Create(context.Background(), e1, w.Document, Options{Verify: vc})
	if err != nil {
		t.Fatal(err)
	}
	// Verify the first two claims of the batch end-to-end, then snapshot
	// the parked session. Snapshotting at claim boundaries keeps the
	// simulated crowd replayable: per-claim random streams restart from
	// the claim ID, so only whole-claim histories are reproducible by a
	// fresh crowd (real humans have no such constraint).
	oracles1 := map[int]core.Oracle{}
	qs := s1.Questions()
	if len(qs) < 3 {
		t.Fatalf("first batch too small: %d questions", len(qs))
	}
	for _, q := range qs[:2] {
		for next := &q; next != nil; {
			a := crowdAnswer(t, e1, w, oracles1, team1, *next)
			var err error
			next, err = s1.Answer(context.Background(), a)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := s1.Snapshot()
	if len(snap.Answers) == 0 {
		t.Fatal("snapshot recorded no answers")
	}

	e2 := testEngine(t, w)
	m2 := NewManager(Config{})
	s2, err := m2.Restore(context.Background(), e2, w.Document, Options{Verify: vc}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ID() != s1.ID() {
		t.Errorf("restored ID = %q, want %q", s2.ID(), s1.ID())
	}
	p1, p2 := s1.Progress(), s2.Progress()
	if p1.Answered != p2.Answered || p1.CrowdSeconds != p2.CrowdSeconds || p1.PendingQuestions != p2.PendingQuestions {
		t.Fatalf("restored progress %+v, want %+v", p2, p1)
	}

	// Finish both sessions with identical crowds; the completed claims
	// need no further answers, and untouched claims get fresh per-claim
	// views on both sides, so the runs must stay in lockstep.
	team2 := testTeam(t)
	pumpSessionFrom(t, s1, e1, w, team1, oracles1)
	pumpSessionFrom(t, s2, e2, w, team2, map[int]core.Oracle{})

	r1, r2 := s1.Report(), s2.Report()
	if !r1.Done || !r2.Done {
		t.Fatal("sessions not done")
	}
	if r1.Seconds != r2.Seconds || r1.Accuracy != r2.Accuracy || len(r1.Outcomes) != len(r2.Outcomes) {
		t.Fatalf("restored run diverged: %+v vs %+v", r2, r1)
	}
	for i := range r1.Outcomes {
		if r1.Outcomes[i].Verdict != r2.Outcomes[i].Verdict || r1.Outcomes[i].Seconds != r2.Outcomes[i].Seconds {
			t.Fatalf("outcome %d diverged", i)
		}
	}
}

// pumpSessionFrom finishes a session reusing an existing per-claim oracle
// map (claims already mid-flight keep their advanced random streams).
func pumpSessionFrom(t testing.TB, s *Session, e *core.Engine, w *worldgen.World, team *crowd.Team, oracles map[int]core.Oracle) {
	t.Helper()
	for !s.Done() {
		qs := s.Questions()
		if len(qs) == 0 {
			t.Fatal("session not done but no pending questions")
		}
		for _, q := range qs {
			for next := &q; next != nil; {
				a := crowdAnswer(t, e, w, oracles, team, *next)
				var err error
				next, err = s.Answer(context.Background(), a)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestTTLEviction verifies idle sessions are swept on manager operations
// and counted in Stats.
func TestTTLEviction(t *testing.T) {
	w := testWorld(t, 12)
	now := time.Unix(1000, 0)
	clock := &fakeClock{now: now}
	m := NewManager(Config{TTL: time.Minute, Clock: clock.Now})
	s, err := m.Create(context.Background(), testEngine(t, w), w.Document, Options{Verify: core.VerifyConfig{BatchSize: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(s.ID()); !ok {
		t.Fatal("fresh session not found")
	}
	clock.Advance(30 * time.Second)
	s.Questions() // activity refreshes the deadline
	clock.Advance(45 * time.Second)
	if _, ok := m.Get(s.ID()); !ok {
		t.Fatal("active session evicted")
	}
	clock.Advance(2 * time.Minute)
	if _, ok := m.Get(s.ID()); ok {
		t.Fatal("idle session survived TTL")
	}
	st := m.Stats()
	if st.Active != 0 || st.EvictedTotal != 1 || st.CreatedTotal != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestManagerLimitsAndAnswerValidation covers MaxSessions, unknown IDs,
// stale question IDs and Remove.
func TestManagerLimitsAndAnswerValidation(t *testing.T) {
	w := testWorld(t, 12)
	m := NewManager(Config{MaxSessions: 1})
	s, err := m.Create(context.Background(), testEngine(t, w), w.Document, Options{Verify: core.VerifyConfig{BatchSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(context.Background(), testEngine(t, w), w.Document, Options{}); err == nil {
		t.Error("registry over capacity accepted a session")
	}
	if _, ok := m.Get("nope"); ok {
		t.Error("unknown id found")
	}

	qs := s.Questions()
	if len(qs) == 0 {
		t.Fatal("no questions")
	}
	q := qs[0]
	if _, err := s.Answer(context.Background(), Answer{QuestionID: "c999.0", ClaimID: 999, Value: "x"}); err == nil {
		t.Error("answer for unknown claim accepted")
	}
	if _, err := s.Answer(context.Background(), Answer{QuestionID: questionID(q.ClaimID, q.Seq+5), ClaimID: q.ClaimID, Value: "x"}); err == nil {
		t.Error("stale question id accepted")
	}
	if _, err := s.Answer(context.Background(), Answer{QuestionID: q.ID, ClaimID: q.ClaimID, Value: "x", Seconds: 1}); err != nil {
		t.Errorf("valid answer rejected: %v", err)
	}
	// Stats sees the session and its queue.
	st := m.Stats()
	if st.Active != 1 || st.PendingQuestions == 0 {
		t.Errorf("stats = %+v", st)
	}
	if !m.Remove(s.ID()) {
		t.Error("remove failed")
	}
	if m.Remove(s.ID()) {
		t.Error("double remove succeeded")
	}
}

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

// TestOwnerTagging: sessions carry their Options.Owner tag and Stats
// breaks live sessions down per owner.
func TestOwnerTagging(t *testing.T) {
	w := testWorld(t, 8)
	m := NewManager(Config{})

	mk := func(owner string) *Session {
		s, err := m.Create(context.Background(), testEngine(t, w), w.Document, Options{
			Verify: core.VerifyConfig{BatchSize: 4},
			Owner:  owner,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mk("verifier-1")
	mk("verifier-1")
	mk("verifier-2")
	untagged := mk("")

	if a.Owner() != "verifier-1" || untagged.Owner() != "" {
		t.Fatalf("Owner() = %q / %q", a.Owner(), untagged.Owner())
	}
	st := m.Stats()
	if st.Active != 4 {
		t.Fatalf("Active = %d, want 4", st.Active)
	}
	if st.ByOwner["verifier-1"] != 2 || st.ByOwner["verifier-2"] != 1 || len(st.ByOwner) != 2 {
		t.Fatalf("ByOwner = %v", st.ByOwner)
	}

	// Removing sessions updates the breakdown; an all-untagged registry
	// reports a nil map.
	m.Remove(a.ID())
	if st := m.Stats(); st.ByOwner["verifier-1"] != 1 {
		t.Fatalf("ByOwner after remove = %v", st.ByOwner)
	}

	// RemoveOwner ends exactly one owner's sessions, each through OnEnd.
	ended := map[string]int{}
	m.SetHooks(Hooks{OnEnd: func(id, owner string, evicted bool) {
		if !evicted {
			ended[owner]++
		}
	}})
	m.RemoveOwner("verifier-2")
	if st := m.Stats(); st.Active != 2 || st.ByOwner["verifier-2"] != 0 || st.ByOwner["verifier-1"] != 1 {
		t.Fatalf("after RemoveOwner: %+v", st)
	}
	if len(ended) != 1 || ended["verifier-2"] != 1 {
		t.Fatalf("OnEnd calls = %v", ended)
	}
	if _, ok := m.Get(untagged.ID()); !ok {
		t.Fatal("RemoveOwner ended an untagged session")
	}
}

// TestManagerConcurrentChurn exercises the registry under multi-tenant
// churn, under -race: N workers concurrently create sessions (tagged with
// per-tenant owners), answer a few questions through the simulated crowd,
// and remove their sessions, while the fake clock advances so TTL eviction
// fires mid-traffic and pollers hammer Get/Stats. Asserts (1) lifecycle
// accounting stays consistent — every session ends exactly once, via
// Remove or eviction, under its creation owner; (2) no cross-session
// answer leakage — each session's final answer log is exactly what its own
// worker posted, even though all sessions share claim IDs.
func TestManagerConcurrentChurn(t *testing.T) {
	w := testWorld(t, 8)
	clock := &fakeClock{now: time.Unix(5000, 0)}
	m := NewManager(Config{TTL: time.Minute, Clock: clock.Now})

	type ending struct {
		owner   string
		evicted bool
	}
	var endMu sync.Mutex
	ended := map[string][]ending{}
	m.SetHooks(Hooks{OnEnd: func(id, owner string, evicted bool) {
		endMu.Lock()
		ended[id] = append(ended[id], ending{owner, evicted})
		endMu.Unlock()
	}})

	owners := []string{"tenant-a", "tenant-b", "tenant-c"}
	const workers = 4
	const rounds = 3

	var createdMu sync.Mutex
	createdOwner := map[string]string{} // session id -> owner at creation

	stop := make(chan struct{})
	var aux sync.WaitGroup
	// Stats/Get pollers and a clock ticker run alongside the churn.
	aux.Add(2)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := m.Stats()
			if st.Active < 0 || st.CreatedTotal < uint64(st.Active) {
				t.Errorf("inconsistent stats: %+v", st)
				return
			}
			tagged := 0
			for _, n := range st.ByOwner {
				tagged += n
			}
			if tagged > st.Active {
				t.Errorf("ByOwner sums to %d > Active %d", tagged, st.Active)
				return
			}
			m.Get("nope")
		}
	}()
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			clock.Advance(time.Second)
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			engine := testEngine(t, w)
			team, err := crowd.NewTeam("W", 3, 0.97, int64(testSeed+wk))
			if err != nil {
				t.Error(err)
				return
			}
			oracles := map[int]core.Oracle{}
			owner := owners[wk%len(owners)]
			for r := 0; r < rounds; r++ {
				s, err := m.Create(context.Background(), engine, w.Document, Options{
					Verify: core.VerifyConfig{BatchSize: 4},
					Owner:  owner,
				})
				if err != nil {
					t.Errorf("worker %d round %d create: %v", wk, r, err)
					return
				}
				createdMu.Lock()
				createdOwner[s.ID()] = owner
				createdMu.Unlock()

				var posted []Answer
				qs := s.Questions()
				if len(qs) == 0 {
					t.Errorf("worker %d round %d: no questions", wk, r)
					return
				}
				for _, q := range qs[:min(3, len(qs))] {
					a := crowdAnswer(t, engine, w, oracles, team, q)
					if _, err := s.Answer(context.Background(), a); err != nil {
						t.Errorf("worker %d answer: %v", wk, err)
						return
					}
					posted = append(posted, a)
				}

				// Leakage check: the log holds exactly this worker's answers.
				got := s.Snapshot().Answers
				if len(got) != len(posted) {
					t.Errorf("worker %d round %d: log has %d answers, posted %d", wk, r, len(got), len(posted))
					return
				}
				for i := range got {
					if got[i] != posted[i] {
						t.Errorf("worker %d round %d: log[%d] = %+v, posted %+v", wk, r, i, got[i], posted[i])
						return
					}
				}
				// Remove races against TTL eviction (the clock ticks
				// concurrently); either ending is legal, but it must be
				// exactly one — checked against the hook log below.
				m.Remove(s.ID())
			}
		}(wk)
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	// Flush the stragglers, then audit the lifecycle accounting.
	clock.Advance(time.Hour)
	st := m.Stats()
	if st.Active != 0 {
		t.Fatalf("Active = %d after final sweep, want 0", st.Active)
	}
	if want := uint64(workers * rounds); st.CreatedTotal != want {
		t.Fatalf("CreatedTotal = %d, want %d", st.CreatedTotal, want)
	}
	endMu.Lock()
	defer endMu.Unlock()
	if len(ended) != workers*rounds {
		t.Fatalf("%d sessions ended, want %d", len(ended), workers*rounds)
	}
	evictions := uint64(0)
	for id, ends := range ended {
		if len(ends) != 1 {
			t.Fatalf("session %s ended %d times: %+v", id, len(ends), ends)
		}
		if want := createdOwner[id]; ends[0].owner != want {
			t.Fatalf("session %s ended under owner %q, created under %q", id, ends[0].owner, want)
		}
		if ends[0].evicted {
			evictions++
		}
	}
	if st.EvictedTotal != evictions {
		t.Fatalf("Stats.EvictedTotal = %d, hook saw %d", st.EvictedTotal, evictions)
	}
}
