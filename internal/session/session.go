package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/core"
)

// Config parameterises a Manager.
type Config struct {
	// TTL evicts sessions idle (no answer, question poll or progress
	// read) for longer than this. 0 disables eviction.
	TTL time.Duration
	// MaxSessions caps concurrently active sessions; Create fails once
	// the registry is full (after sweeping expired sessions). 0 means
	// unlimited.
	MaxSessions int
	// Clock overrides the time source (tests); nil means time.Now.
	Clock func() time.Time
}

// Options parameterises one session.
type Options struct {
	// Verify is the Algorithm 1 configuration for the run (batch size,
	// ordering, checkers, section read cost, parallelism for batch
	// assessment and retraining).
	Verify core.VerifyConfig
	// Owner optionally tags the session with the resource it runs under
	// (the service layer uses the verifier ID), so registry statistics
	// can be broken down per tenant. Empty owners are untagged.
	Owner string
}

// Option is one candidate answer shown on a question screen.
type Option struct {
	Value string  `json:"value"`
	Prob  float64 `json:"prob"`
}

// Question is one pending question screen, enriched with the claim text a
// human checker needs to answer it.
type Question struct {
	// ID names the (claim, seq) pair this question occupies; an answer
	// carrying it is rejected if the session has moved on (duplicate or
	// out-of-order post).
	ID      string `json:"id"`
	ClaimID int    `json:"claim_id"`
	Seq     int    `json:"seq"`
	// Screen is "relation", "key", "attribute", "formula" or "final".
	Screen   string `json:"screen"`
	Claim    string `json:"claim"`
	Sentence string `json:"sentence"`
	// Options are candidate property values, best first (property and
	// formula screens).
	Options []Option `json:"options,omitempty"`
	// Candidates are full candidate queries as SQL (final screen).
	Candidates []string `json:"candidates,omitempty"`
}

// Answer is one checker response, routed to the claim's pending question.
type Answer struct {
	// QuestionID optionally pins the answer to one question; when set it
	// must match the claim's current question.
	QuestionID string `json:"question_id,omitempty"`
	ClaimID    int    `json:"claim_id"`
	// Value is the chosen or suggested value ("" when the checker cannot
	// answer; SQL on the final screen).
	Value string `json:"value"`
	// Seconds is the human effort the answer consumed.
	Seconds float64 `json:"seconds"`
}

// Progress is a point-in-time view of a session.
type Progress struct {
	ID               string    `json:"id"`
	Done             bool      `json:"done"`
	Verified         int       `json:"verified"`
	Total            int       `json:"total"`
	Batches          int       `json:"batches"`
	PendingQuestions int       `json:"pending_questions"`
	Answered         int       `json:"answered"`
	CrowdSeconds     float64   `json:"crowd_seconds"`
	ModelGeneration  uint64    `json:"model_generation"`
	Created          time.Time `json:"created"`
	LastActive       time.Time `json:"last_active"`
}

// Report aggregates a session's outcomes (partial while the run is live).
type Report struct {
	Done     bool
	Outcomes []*core.Outcome
	Seconds  float64
	Batches  int
	Accuracy float64
}

// Snapshot is the durable form of a session: the ordered answer log.
// Replaying it through Restore against a freshly built engine (same
// corpus, document and seed) reconstructs the session state exactly —
// verification is deterministic in (engine, document, answers).
type Snapshot struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
	Answers []Answer  `json:"answers"`
}

// Stats aggregates the registry for health reporting.
type Stats struct {
	// Active is the number of live sessions.
	Active int `json:"active"`
	// PendingQuestions sums the queued questions across live sessions.
	PendingQuestions int `json:"pending_questions"`
	// MaxGeneration is the highest classifier generation reached by any
	// live session's engine.
	MaxGeneration uint64 `json:"max_model_generation"`
	// CreatedTotal and EvictedTotal count over the manager's lifetime.
	CreatedTotal uint64 `json:"created_total"`
	EvictedTotal uint64 `json:"evicted_total"`
	// AnsweredTotal counts answers accepted by live sessions over the
	// manager's lifetime, excluding snapshot replay (those were counted
	// when first posted).
	AnsweredTotal uint64 `json:"answered_total"`
	// ByOwner counts live sessions per Options.Owner tag (untagged
	// sessions are omitted); nil when no live session carries a tag.
	ByOwner map[string]int `json:"by_owner,omitempty"`
}

// Hooks observe accepted registry mutations; the service layer installs
// them to journal session activity. Install with SetHooks before the
// manager is shared — the fields are read without synchronization.
type Hooks struct {
	// OnAnswer fires after a session accepts an answer, under the session
	// lock — so hook invocation order matches apply order even with
	// concurrent checkers, which is what makes answer-log replay exact. It
	// does not fire for answers replayed by Restore (they are already
	// journaled). The hook must not call back into the Manager or Session.
	OnAnswer func(s *Session, a Answer)
	// OnEnd fires when a session leaves the registry — an explicit Remove
	// or a TTL eviction — under the registry lock. It must not call back
	// into the Manager.
	OnEnd func(id, owner string, evicted bool)
}

// Manager is the concurrent session registry. All methods are safe for
// concurrent use. The manager never spawns goroutines: TTL eviction is
// swept inline on Create, Get, Remove and Stats.
//
// The registry lock is split from the per-session locks: lookups and stats
// take the registry read lock and touch only per-session atomics (last
// activity, pending count, model generation), so answer routing on one
// session — which can hold that session's lock through a batch-boundary
// retrain — never blocks another session's question poll, a lookup, or a
// health check. The write lock is taken only to mutate the registry map:
// insert, remove, and the TTL sweep (which a lock-free scan arms first).
type Manager struct {
	cfg   Config
	hooks Hooks

	mu       sync.RWMutex
	sessions map[string]*Session
	seq      uint64
	created  uint64
	evicted  uint64

	// answered counts accepted (non-replay) answers; an atomic rather
	// than an m.mu field because it is bumped under a session lock, not
	// the registry lock.
	answered atomic.Uint64
}

// NewManager builds an empty registry.
func NewManager(cfg Config) *Manager {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Manager{cfg: cfg, sessions: make(map[string]*Session)}
}

func (m *Manager) now() time.Time { return m.cfg.Clock() }

// SetHooks installs mutation observers. It must be called before the
// manager handles any traffic.
func (m *Manager) SetHooks(h Hooks) { m.hooks = h }

// sweep evicts idle sessions; caller holds m.mu for writing.
func (m *Manager) sweep(now time.Time) {
	if m.cfg.TTL <= 0 {
		return
	}
	for id, s := range m.sessions {
		if now.Sub(s.lastActive()) > m.cfg.TTL {
			delete(m.sessions, id)
			m.evicted++
			if m.hooks.OnEnd != nil {
				m.hooks.OnEnd(id, s.owner, true)
			}
		}
	}
}

// maybeSweep arms the TTL sweep: a read-locked scan over the sessions'
// atomic activity stamps decides whether anything expired, and only then
// is the write lock taken. The common case — nothing expired — costs
// read-path locking only, so eviction checks on Get/Stats never serialize
// concurrent lookups.
func (m *Manager) maybeSweep(now time.Time) {
	if m.cfg.TTL <= 0 {
		return
	}
	expired := false
	m.mu.RLock()
	for _, s := range m.sessions {
		if now.Sub(s.lastActive()) > m.cfg.TTL {
			expired = true
			break
		}
	}
	m.mu.RUnlock()
	if !expired {
		return
	}
	m.mu.Lock()
	m.sweep(now)
	m.mu.Unlock()
}

// Create starts a verification session for a document on a dedicated
// engine. The engine must be exclusive to the session: batch-boundary
// retraining mutates its classifiers. ctx bounds creation — first-batch
// selection scores every claim of the document — and cancellation leaves
// nothing registered.
func (m *Manager) Create(ctx context.Context, engine *core.Engine, doc *claims.Document, opts Options) (*Session, error) {
	return m.start(ctx, engine, doc, opts, nil)
}

// Restore rebuilds a session from a snapshot by replaying its answer log
// against a freshly built engine. The engine and document must be
// constructed exactly as the original session's were (same corpus,
// feature pipeline, configuration and seed, no training beyond what the
// original had at creation); replay then reaches a bit-identical state.
// The restored session keeps the snapshot's ID.
func (m *Manager) Restore(ctx context.Context, engine *core.Engine, doc *claims.Document, opts Options, snap *Snapshot) (*Session, error) {
	if snap == nil {
		return nil, fmt.Errorf("session: nil snapshot")
	}
	return m.start(ctx, engine, doc, opts, snap)
}

func (m *Manager) start(ctx context.Context, engine *core.Engine, doc *claims.Document, opts Options, snap *Snapshot) (*Session, error) {
	if engine == nil {
		return nil, fmt.Errorf("session: nil engine")
	}
	if doc == nil {
		return nil, fmt.Errorf("session: nil document")
	}
	now := m.now()
	m.mu.Lock()
	m.sweep(now)
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, fmt.Errorf("session: registry full (%d active sessions)", m.cfg.MaxSessions)
	}
	m.seq++
	seq := m.seq
	m.mu.Unlock()

	// Start the run outside the registry lock: first-batch selection
	// scores every claim and is the expensive part of creation.
	run, err := engine.StartDocument(ctx, doc, opts.Verify)
	if err != nil {
		return nil, err
	}
	s := &Session{
		id:      newID(seq),
		owner:   opts.Owner,
		mgr:     m,
		engine:  engine,
		doc:     doc,
		byID:    make(map[int]*claims.Claim, len(doc.Claims)),
		run:     run,
		created: now,
	}
	s.last.Store(now.UnixNano())
	s.refreshStatsCache()
	for _, c := range doc.Claims {
		s.byID[c.ID] = c
	}
	if snap != nil {
		if snap.ID != "" {
			s.id = snap.ID
		}
		if !snap.Created.IsZero() {
			s.created = snap.Created
		}
		// Replayed answers are already journaled; suppress the hook so
		// recovery does not re-append them. Replay runs detached from ctx:
		// a half-replayed session is worse than a slow restore, and the
		// journaled answers were all accepted once already.
		s.replaying = true
		for i, a := range snap.Answers {
			if _, err := s.Answer(context.WithoutCancel(ctx), a); err != nil {
				return nil, fmt.Errorf("session: replaying answer %d (claim %d): %w", i, a.ClaimID, err)
			}
		}
		s.replaying = false
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.sessions[s.id]; exists {
		return nil, fmt.Errorf("session: id %q already registered", s.id)
	}
	// Re-check capacity: the registry lock was released while the run
	// started, so concurrent creations may have filled the registry in
	// the meantime.
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		return nil, fmt.Errorf("session: registry full (%d active sessions)", m.cfg.MaxSessions)
	}
	m.sessions[s.id] = s
	m.created++
	return s, nil
}

// Get returns a live session by ID (expired sessions are swept first).
// The lookup itself runs under the registry read lock and touches no
// session lock, so it proceeds even while every live session is mid-answer.
func (m *Manager) Get(id string) (*Session, bool) {
	m.maybeSweep(m.now())
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.sessions[id]
	return s, ok
}

// Remove deletes a session from the registry, reporting whether it was
// present.
func (m *Manager) Remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweep(m.now())
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	if ok && m.hooks.OnEnd != nil {
		m.hooks.OnEnd(id, s.owner, false)
	}
	return ok
}

// RemoveOwner deletes every session tagged with owner, as Remove does one
// by one.
func (m *Manager) RemoveOwner(owner string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweep(m.now())
	for id, s := range m.sessions {
		if s.owner != owner {
			continue
		}
		delete(m.sessions, id)
		if m.hooks.OnEnd != nil {
			m.hooks.OnEnd(id, owner, false)
		}
	}
}

// Stats aggregates the live registry. Per-session figures come from each
// session's atomically maintained stats cache (pending questions, model
// generation, refreshed on every accepted answer), so a health poll reads
// a consistent registry snapshot without stalling on — or being stalled
// by — sessions that are mid-answer.
func (m *Manager) Stats() Stats {
	m.maybeSweep(m.now())
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := Stats{
		Active:        len(m.sessions),
		CreatedTotal:  m.created,
		EvictedTotal:  m.evicted,
		AnsweredTotal: m.answered.Load(),
	}
	for _, s := range m.sessions {
		pending, gen := s.statsView()
		st.PendingQuestions += pending
		if gen > st.MaxGeneration {
			st.MaxGeneration = gen
		}
		if s.owner != "" {
			if st.ByOwner == nil {
				st.ByOwner = make(map[string]int)
			}
			st.ByOwner[s.owner]++
		}
	}
	return st
}

// newID mints a session ID: a monotone sequence number plus random bytes
// so IDs are unguessable across restarts.
func newID(seq uint64) string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to
		// the sequence alone rather than aborting session creation.
		return fmt.Sprintf("s%d", seq)
	}
	return fmt.Sprintf("s%d-%s", seq, hex.EncodeToString(b[:]))
}

// Session is one parked verification run. All methods are safe for
// concurrent use; a single lock serializes answers, which keeps the
// underlying run's per-claim machines race-free however many checkers
// post concurrently. The activity stamp and the stats cache live outside
// that lock, as atomics, so the Manager's sweep and Stats never wait on a
// session that is mid-answer.
type Session struct {
	id     string
	owner  string // immutable after creation
	mgr    *Manager
	engine *core.Engine
	doc    *claims.Document
	byID   map[int]*claims.Claim

	// last is the idle-eviction stamp (UnixNano), written by every
	// checker-facing call and read lock-free by the registry sweep.
	last atomic.Int64
	// pendingN / genN cache Progress().Pending and the engine generation,
	// refreshed after every accepted answer; Manager.Stats reads them
	// without taking the session or run lock.
	pendingN atomic.Int64
	genN     atomic.Uint64

	mu      sync.Mutex
	run     *core.DocumentRun
	created time.Time
	log     []Answer
	// replaying is true while Restore replays a snapshot's answer log; the
	// session is not yet shared, so plain reads in Answer are safe.
	replaying bool
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Owner returns the Options.Owner tag the session was created with ("" for
// untagged sessions).
func (s *Session) Owner() string { return s.owner }

func (s *Session) lastActive() time.Time { return time.Unix(0, s.last.Load()) }

func (s *Session) touch() { s.last.Store(s.mgr.now().UnixNano()) }

// refreshStatsCache re-publishes the pending-question count and model
// generation for lock-free Stats aggregation. Called at creation and after
// every accepted answer (the only events that change either figure).
func (s *Session) refreshStatsCache() {
	s.pendingN.Store(int64(s.run.Progress().Pending))
	s.genN.Store(s.engine.Generation())
}

// questionID names the (claim, seq) slot of a pending question.
func questionID(claimID, seq int) string { return fmt.Sprintf("c%d.%d", claimID, seq) }

// toQuestion enriches a core question with the claim text.
func (s *Session) toQuestion(q *core.Question) Question {
	out := Question{
		ID:      questionID(q.ClaimID, q.Seq),
		ClaimID: q.ClaimID,
		Seq:     q.Seq,
	}
	if q.Step == core.StepFinal {
		out.Screen = "final"
		out.Candidates = append([]string(nil), q.Candidates...)
	} else {
		out.Screen = q.Property.String()
		for _, o := range q.Options {
			out.Options = append(out.Options, Option{Value: o.Value, Prob: o.Prob})
		}
	}
	if c := s.byID[q.ClaimID]; c != nil {
		out.Claim = c.Text
		out.Sentence = c.Sentence
	}
	return out
}

// Questions lists the pending questions of the current batch, in batch
// order. An empty list means the run is done (or mid-answer on another
// goroutine; poll again).
func (s *Session) Questions() []Question {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch()
	qs := s.run.Questions()
	out := make([]Question, 0, len(qs))
	for _, q := range qs {
		out = append(out, s.toQuestion(q))
	}
	return out
}

// Answer posts one answer, advancing the claim's machine — and, when it
// completes the batch's last claim, running the retrain barrier and
// selecting the next batch before returning. It returns the claim's next
// question (nil when the claim — or the whole run — is finished).
//
// ctx bounds this answer's own work (Algorithm 2 query generation): a
// cancelled answer is rolled back, not journaled, and repostable. The
// retrain barrier a completing answer triggers is a commit point and does
// not observe ctx — see core.DocumentRun.
func (s *Session) Answer(ctx context.Context, a Answer) (*Question, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch()
	if a.QuestionID != "" {
		q := s.run.QuestionFor(a.ClaimID)
		if q == nil {
			return nil, fmt.Errorf("session: claim %d has no pending question", a.ClaimID)
		}
		if want := questionID(q.ClaimID, q.Seq); a.QuestionID != want {
			return nil, fmt.Errorf("session: answer targets question %s but %s is pending", a.QuestionID, want)
		}
	}
	next, err := s.run.Answer(ctx, a.ClaimID, a.Value, a.Seconds)
	if err != nil {
		return nil, err
	}
	s.refreshStatsCache()
	s.log = append(s.log, a)
	if !s.replaying {
		s.mgr.answered.Add(1)
		if s.mgr.hooks.OnAnswer != nil {
			s.mgr.hooks.OnAnswer(s, a)
		}
	}
	if next == nil {
		return nil, nil
	}
	q := s.toQuestion(next)
	return &q, nil
}

// Done reports whether every claim has been verified.
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run.Done()
}

// statsView reports the cached queue length and model generation without
// counting as checker activity (Manager.Stats would otherwise keep every
// session alive through health polling) and without locking (Manager.Stats
// would otherwise stall behind a batch-boundary retrain).
func (s *Session) statsView() (pending int, generation uint64) {
	return int(s.pendingN.Load()), s.genN.Load()
}

// Progress reports the session's position in the Algorithm 1 loop. Like
// every checker-facing call, it refreshes the idle-eviction deadline.
func (s *Session) Progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch()
	p := s.run.Progress()
	return Progress{
		ID:               s.id,
		Done:             p.Done,
		Verified:         p.Verified,
		Total:            p.Total,
		Batches:          p.Batches,
		PendingQuestions: p.Pending,
		Answered:         p.Answered,
		CrowdSeconds:     p.Seconds,
		ModelGeneration:  s.engine.Generation(),
		Created:          s.created,
		LastActive:       s.lastActive(),
	}
}

// Report returns the outcomes accumulated so far (complete once Done),
// scored against the document where annotations exist.
func (s *Session) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch()
	p := s.run.Progress()
	outs := s.run.Outcomes()
	return Report{
		Done:     p.Done,
		Outcomes: outs,
		Seconds:  p.Seconds,
		Batches:  p.Batches,
		Accuracy: core.Accuracy(s.doc, outs),
	}
}

// Snapshot captures the session's answer log for durable storage; see
// Manager.Restore.
func (s *Session) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Snapshot{
		ID:      s.id,
		Created: s.created,
		Answers: append([]Answer(nil), s.log...),
	}
}
