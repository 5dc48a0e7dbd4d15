// Command scrutinizerd serves Scrutinizer as a long-running, multi-tenant
// HTTP service built on the corpus / verifier / run resource model:
//
//   - Corpora are registered relational data sets. The corpus loaded at
//     startup (-corpus, or a synthetic world) is registered as "default",
//     an ordinary corpus like any other; more are created over the /v1
//     API and populated with CSV uploads.
//   - Verifiers are trained model bundles over a corpus: training fits the
//     feature pipeline once on the posted annotated document and
//     bootstraps the classifiers from "a database of previously checked
//     claims". A trained verifier serves any number of documents without
//     refitting — the fit-once / verify-many amortization the paper's IEA
//     deployment relies on.
//   - Runs execute one document against a verifier: mode "batch" answers
//     every question screen with the simulated crowd in-process and
//     returns the report inline; mode "session" parks an interactive
//     question/answer session. Between answers a session holds no
//     goroutines; batch-boundary retraining runs inside the answer that
//     completes a batch, on the run's private engine. Sessions idle past
//     -session-ttl are evicted.
//
// Usage:
//
//	scrutinizerd [-addr :8080] [-corpus dir] [-claims n] [-seed n] [-parallel n]
//	             [-pprof addr] [-mutexprofile n] [-blockprofile n]
//	             [-session-ttl 30m] [-max-sessions 256] [-data-dir dir]
//	             [-log-level info]
//
// Without -corpus the daemon generates a synthetic world corpus (the
// quickest way to try the API: generate a matching document with
// cmd/datagen or the snippet in the README).
//
// # Durability
//
// -data-dir (off by default) makes the /v1 registry survive restarts:
// every accepted mutation — corpus create/delete, relation upload,
// verifier training, session create/answer/delete — is appended to a
// write-ahead journal in that directory before the HTTP response
// acknowledges it. The journal is the only durable state. On boot the
// daemon replays it: corpora are rebuilt from their journaled relations,
// verifiers are deterministically retrained from their journaled training
// documents, and interactive sessions are re-parked by replaying their
// answer logs — all bit-identical to the pre-crash state. A torn
// final record (crash mid-append) is detected by checksum and truncated:
// it was never acknowledged, so losing it is correct. Without -data-dir
// the daemon is ephemeral, exactly as before.
//
// # Profiling
//
// -pprof (off by default) serves net/http/pprof on its own listener,
// separate from the API address so profiling is never exposed on the
// serving port. To profile a live verification service:
//
//	scrutinizerd -pprof localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30   # CPU
//	go tool pprof http://localhost:6060/debug/pprof/heap                 # allocations
//	curl -s http://localhost:6060/debug/pprof/goroutine?debug=2          # stuck workers
//
// Fire /v1 batch runs while the CPU profile records; the hot paths to
// look for are classifier scoring (scoreInto), query generation and the
// scheduler ILP.
//
// Lock contention has its own profiles, armed by -mutexprofile (sample
// 1/N mutex contention events) and -blockprofile (sample blocking events
// of at least N ns) since both cost a little on every lock operation.
// Two commands answer "where do concurrent tenants wait":
//
//	scrutinizerd -pprof localhost:6060 -mutexprofile 5 &
//	go tool pprof -top http://localhost:6060/debug/pprof/mutex
//
// Drive load while the profile accumulates, e.g. a perfbench tenant-churn
// run whose -daemon is a wrapper adding these flags (README, "Finding the
// next bottleneck"); healthy output concentrates delay in the runtime, not
// in scrutinizer's own locks — the shared hot paths (query cache, session
// registry, corpus index, verifier models) are sharded, lock-free or
// read-locked precisely so this profile stays boring under multi-tenant
// load.
//
// Endpoints:
//
//	GET    /metrics                              Prometheus text-format metrics for every serving layer
//	GET    /healthz                              liveness + version, score kernel, tenant and session statistics
//	GET    /readyz                               readiness (503 while the journal replays)
//	POST   /v1/corpora                           create a corpus (optionally seeded with inline CSV relations)
//	GET    /v1/corpora                           list corpora
//	GET    /v1/corpora/{id}                      corpus stats
//	DELETE /v1/corpora/{id}                      drop a corpus and its verifiers
//	PUT    /v1/corpora/{id}/relations/{name}     upload one relation as a raw CSV body
//	DELETE /v1/corpora/{id}/relations/{name}     drop a relation (only while the corpus has no verifiers)
//	POST   /v1/corpora/{id}/verifiers            train a verifier from an annotated document
//	GET    /v1/verifiers[/{id}]                  list / inspect verifiers
//	DELETE /v1/verifiers/{id}                    drop a verifier
//	POST   /v1/verifiers/{id}/runs               run a document (mode "batch" or "session")
//	GET    /v1/runs/{id}                         interactive run progress
//	GET    /v1/runs/{id}/questions               pending question screens
//	POST   /v1/runs/{id}/answers                 post one answer or a batch of answers
//	GET    /v1/runs/{id}/report                  outcomes so far (complete once done)
//	DELETE /v1/runs/{id}                         drop an interactive run
//
// A /v1 runs body is either a bare document (the claims.WriteJSON format)
// or an envelope:
//
//	{
//	  "document":    {...},       // required: the document to verify
//	  "mode":        "batch",     // batch | session
//	  "team":        3,           // batch runs: simulated checkers (default 3)
//	  "checkers":    1,           // session runs: humans skimming each section
//	  "batch":       100,         // retraining batch size (default 100)
//	  "parallelism": 0,           // 0 = server default
//	  "ordering":    "ilp",       // ilp | sequential | greedy | random
//	  "seed":        7,           // random-ordering seed (model and crowd seeds belong to the verifier)
//	  "section_read_cost": 0      // seconds per section skim
//	}
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (served only when -pprof is set)
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/guard"
	"github.com/repro/scrutinizer/internal/obs"
	istore "github.com/repro/scrutinizer/internal/store"
	"github.com/repro/scrutinizer/internal/table"
)

// daemonLog is the process logger (logfmt on stderr). main re-levels it
// from -log-level before anything is served; tests and embedders get the
// info-level default.
var daemonLog = obs.NewLogger(nil, obs.LevelInfo)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	corpusDir := flag.String("corpus", "", "directory of CSV relations (default: synthetic world corpus)")
	numClaims := flag.Int("claims", 200, "synthetic world size when -corpus is not given")
	seed := flag.Int64("seed", 7, "synthetic world seed")
	parallel := flag.Int("parallel", 0, "default per-batch verification fan-out (0 = all CPUs)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "evict interactive sessions idle longer than this (0 = never)")
	maxSessions := flag.Int("max-sessions", 256, "cap on concurrent interactive sessions (0 = unlimited)")
	dataDir := flag.String("data-dir", "", "durable state directory: journal /v1 mutations and recover them on boot (empty = ephemeral)")
	mutexProfile := flag.Int("mutexprofile", 0, "sample 1/N mutex contention events for /debug/pprof/mutex (0 = off; 1 = every event)")
	blockProfile := flag.Int("blockprofile", 0, "sample blocking events >= N ns for /debug/pprof/block (0 = off; 1 = every event)")
	requestTimeout := flag.Duration("request-timeout", 0, "server-enforced deadline per verification request (0 = none)")
	rateLimit := flag.Float64("rate-limit", 0, "per-tenant request rate on expensive routes, requests/second (0 = unlimited)")
	rateBurst := flag.Float64("rate-burst", 10, "per-tenant token-bucket burst for -rate-limit")
	maxRunsPerTenant := flag.Int("max-runs-per-tenant", 0, "concurrent runs (batch + interactive) per tenant (0 = unlimited)")
	maxInflight := flag.Int("max-inflight", 0, "global bound on in-flight expensive requests; beyond it requests are shed with 503 (0 = unlimited)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()

	daemonLog = obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))

	// Contention profiling is off by default (both profiles cost on every
	// lock operation once armed). Turn them on next to -pprof to see where
	// concurrent tenants actually wait:
	//
	//	scrutinizerd -pprof localhost:6060 -mutexprofile 5 &
	//	go tool pprof -top http://localhost:6060/debug/pprof/mutex
	if *mutexProfile > 0 {
		runtime.SetMutexProfileFraction(*mutexProfile)
	}
	if *blockProfile > 0 {
		runtime.SetBlockProfileRate(*blockProfile)
	}

	var pprofSrv *http.Server
	if *pprofAddr != "" {
		// The pprof handlers self-register on http.DefaultServeMux; serve
		// that mux on a dedicated, fully-configured listener so profiling
		// endpoints never share the API port and participate in graceful
		// shutdown like the API server.
		pprofSrv = &http.Server{
			Addr:              *pprofAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       time.Minute,
			// Generous write window: profile?seconds=30 streams for the
			// requested duration before the response completes.
			WriteTimeout: 3 * time.Minute,
			IdleTimeout:  2 * time.Minute,
		}
		go func() {
			daemonLog.Info("pprof listening", "url", "http://"+*pprofAddr+"/debug/pprof/")
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				daemonLog.Error("pprof server failed", "err", err)
			}
		}()
	}

	corpus, err := loadCorpus(*corpusDir, *numClaims, *seed)
	if err != nil {
		daemonLog.Error("loading corpus", "err", err)
		os.Exit(1)
	}
	var st scrutinizer.Store
	var closeStore func() error
	if *dataDir != "" {
		fs, err := scrutinizer.OpenFileStore(*dataDir)
		if err != nil {
			daemonLog.Error("opening data dir", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		// Closed explicitly at the end of the shutdown sequence (after
		// in-flight handlers drain), not deferred: the fatal os.Exit paths
		// skip defers, and a defer would race handlers still appending to
		// the journal.
		closeStore = fs.Close
		st = fs
	}
	s := newServerShell(serverConfig{
		parallel:         *parallel,
		sessionTTL:       *sessionTTL,
		maxSessions:      *maxSessions,
		requestTimeout:   *requestTimeout,
		rateLimit:        *rateLimit,
		rateBurst:        *rateBurst,
		maxRunsPerTenant: *maxRunsPerTenant,
		maxInflight:      *maxInflight,
	}, st)

	// Every request context descends from baseCtx, so cancelling it after
	// the HTTP listener stops cancels whatever verification work is still
	// in flight — the core's checkpoints observe it between rounds.
	baseCtx, cancelRuns := context.WithCancel(context.Background())
	defer cancelRuns()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.routes(),
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
		ReadHeaderTimeout: 5 * time.Second,
		// Reading a request body tops out at the 64 MB document cap;
		// five minutes covers that even on slow links.
		ReadTimeout: 5 * time.Minute,
		// Paper-scale batch runs legitimately take minutes: the write
		// window is wide but bounded so a dead peer can never pin a
		// handler forever.
		WriteTimeout: 30 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	// Listen before replaying the journal: during recovery the probes
	// answer (liveness green, readiness 503) while API routes refuse with
	// 503 until boot finishes, instead of the whole port being dark.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	// score_kernel tells hosts apart whose classifier kernels, the score
	// sweep and the AdaGrad update, run in AVX2 assembly ("avx2") or as
	// the portable loops ("go": scoring about half as fast, updates about
	// 1.7x slower).
	daemonLog.Info("listening", "addr", *addr, "score_kernel", classifier.Kernel())

	if err := s.boot(corpus); err != nil {
		if closeStore != nil {
			closeStore()
		}
		daemonLog.Error("journal recovery failed", "dir", *dataDir, "err", err)
		os.Exit(1)
	}
	if st != nil {
		rec := s.recovered
		daemonLog.Info("journal recovered", "dir", *dataDir,
			"records", rec.Records, "corpora", rec.Corpora,
			"verifiers", rec.Verifiers, "sessions", rec.Sessions,
			"skipped", rec.SessionsSkipped, "replay_s", rec.ReplayS,
			"corpora_s", rec.CorporaS, "verifiers_s", rec.VerifiersS,
			"sessions_s", rec.SessionsS)
	}
	if ci, ok := s.svc.CorpusInfo(defaultCorpusID); ok {
		daemonLog.Info("corpus ready, serving",
			"relations", ci.Relations, "rows", ci.Rows, "cells", ci.Cells)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if closeStore != nil {
			closeStore()
		}
		daemonLog.Error("serve failed", "err", err)
		os.Exit(1)
	case sig := <-stop:
		// Shutdown ordering matters: stop admitting (readiness goes red,
		// new conns refused), let in-flight handlers finish or time out,
		// cancel whatever is still running, wait for the admission gate to
		// empty, and only then close the store — a handler can never be
		// mid-journal-append when the journal closes.
		daemonLog.Info("draining", "signal", sig.String())
		s.ready.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			daemonLog.Error("shutdown", "err", err)
		}
		if pprofSrv != nil {
			if err := pprofSrv.Shutdown(ctx); err != nil {
				daemonLog.Error("pprof shutdown", "err", err)
			}
		}
		cancelRuns()
		drainStart := time.Now()
		drained := s.gate.Drain(10 * time.Second)
		s.metrics.drainSeconds.Set(time.Since(drainStart).Seconds())
		if !drained {
			daemonLog.Warn("handlers still in flight after drain timeout")
		}
		if closeStore != nil {
			if err := closeStore(); err != nil {
				daemonLog.Error("closing store", "err", err)
			}
		}
		daemonLog.Info("drained, exiting",
			"drain_seconds", time.Since(drainStart).Seconds())
	}
}

// loadCorpus reads every *.csv in dir as one relation, or generates the
// synthetic world corpus when dir is empty.
func loadCorpus(dir string, numClaims int, seed int64) (*scrutinizer.Corpus, error) {
	if dir == "" {
		cfg := scrutinizer.SmallWorld()
		cfg.NumClaims = numClaims
		cfg.Seed = seed
		w, err := scrutinizer.GenerateWorld(cfg)
		if err != nil {
			return nil, err
		}
		return w.Corpus, nil
	}
	return table.ReadCSVDir(dir)
}

// maxBodyBytes caps request bodies: a paper-scale annotated document is a
// few MB, so 64 MB leaves an order-of-magnitude headroom.
const maxBodyBytes = 64 << 20

// defaultCorpusID is the registry name of the corpus loaded at startup.
const defaultCorpusID = "default"

// serverConfig bundles the daemon's tuning knobs; the zero value means
// "no protection limits, all CPUs, sessions never expire".
type serverConfig struct {
	parallel         int
	sessionTTL       time.Duration
	maxSessions      int
	requestTimeout   time.Duration // server-enforced verification deadline (0 = none)
	rateLimit        float64       // per-tenant requests/second (0 = unlimited)
	rateBurst        float64
	maxRunsPerTenant int // concurrent runs per tenant (0 = unlimited)
	maxInflight      int // global in-flight bound (0 = unlimited)
}

// server holds the shared state of the daemon: the multi-tenant resource
// registry (corpora + verifiers), the interactive session registry behind
// /v1 runs, and the tenant-protection guards.
type server struct {
	svc      *scrutinizer.Service
	cfg      serverConfig
	parallel int
	maxBody  int64
	sessions *scrutinizer.SessionManager
	started  time.Time
	store    scrutinizer.Store // nil when ephemeral
	// Tenant protection (see guard.go): global admission gate, per-tenant
	// rate limiter and per-tenant run quota. The gate is never nil — it
	// counts in-flight work for shutdown draining even when unbounded.
	gate     *guard.Gate
	rates    *guard.RateLimiter // nil = unlimited
	runQuota *guard.Quota       // nil = unlimited
	// metrics is the observability registry (never nil): serving-layer
	// instruments plus scrape-time mirrors of every component's stats. The
	// health probes render from the same refreshMetrics snapshot /metrics
	// scrapes, so the two surfaces cannot disagree.
	metrics *daemonMetrics
	// ready flips once boot-time journal replay finishes; until then the
	// API surface answers 503 and /readyz reports not-ready. Flipping it
	// back off is the first step of shutdown.
	ready atomic.Bool
	// panicHook, when set by tests, runs inside the answers handler after
	// the session is resolved — the seam for injecting handler panics.
	panicHook func(*http.Request)
	// recovered summarises the boot-time journal replay; zero when the
	// daemon runs without -data-dir.
	recovered scrutinizer.RecoveryStats
	// corpusLocks serializes /v1 mutations per corpus ID (relation
	// uploads/removals against each other and against verifier training
	// over the same corpus) without ever blocking other tenants. Reads
	// during verification need no lock: mutation is rejected once a
	// corpus has verifiers. Entries for deleted corpora linger until
	// process exit — one mutex per corpus ID ever seen, negligible.
	corpusLocks sync.Map // corpus id -> *sync.Mutex
}

// lockCorpus returns the mutation lock for one corpus ID.
func (s *server) lockCorpus(id string) *sync.Mutex {
	mu, _ := s.corpusLocks.LoadOrStore(id, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// newServerShell builds the daemon's registries and guards but replays no
// journal: the HTTP listener can start on the shell (probes answer, API
// routes 503) while boot runs the replay.
func newServerShell(cfg serverConfig, st scrutinizer.Store) *server {
	if cfg.parallel <= 0 {
		cfg.parallel = core.DefaultParallelism()
	}
	started := time.Now()
	m := newDaemonMetrics(started)
	if st != nil {
		// Journal appends and boot-time replay get timed at the store
		// boundary; the daemon's closeStore keeps its handle to the inner
		// store, so wrapping here changes nothing about shutdown.
		st = istore.Monitor(st, m.reg)
	}
	// Run-lifecycle counters ride the core package's observer seam —
	// process-global, so the last shell built owns them (one daemon per
	// process outside tests).
	core.SetObserver(m.observer())
	s := &server{
		svc:      scrutinizer.NewService(),
		cfg:      cfg,
		parallel: cfg.parallel,
		maxBody:  maxBodyBytes,
		sessions: scrutinizer.NewSessionManager(cfg.sessionTTL, cfg.maxSessions),
		started:  started,
		store:    st,
		gate:     guard.NewGate(cfg.maxInflight),
		rates:    guard.NewRateLimiter(cfg.rateLimit, cfg.rateBurst, nil),
		runQuota: guard.NewQuota(cfg.maxRunsPerTenant),
		metrics:  m,
	}
	m.reg.OnScrape(func() { s.refreshMetrics() })
	return s
}

// boot replays the journal (when durable), registers the startup corpus
// and flips the server ready. Handlers only read the fields boot writes
// after observing ready, so the atomic flip publishes them safely.
func (s *server) boot(corpus *scrutinizer.Corpus) error {
	if s.store != nil {
		recovered, err := s.svc.Recover(s.store, s.sessions)
		if err != nil {
			return err
		}
		s.recovered = recovered
	}
	// A recovered journal may already hold the startup corpus — journaled
	// at an earlier boot, possibly mutated since — and the durable copy
	// wins over the freshly loaded one. If it was deleted, this boot
	// registers a fresh one.
	if _, ok := s.svc.Corpus(defaultCorpusID); !ok {
		if _, err := s.svc.AddCorpus(defaultCorpusID, corpus); err != nil {
			return fmt.Errorf("registering default corpus: %w", err)
		}
	}
	s.ready.Store(true)
	return nil
}

// newServer is the one-shot constructor (shell + boot): what tests and
// embedders want when there is no listener racing the replay.
func newServer(corpus *scrutinizer.Corpus, cfg serverConfig, st scrutinizer.Store) (*server, error) {
	s := newServerShell(cfg, st)
	if err := s.boot(corpus); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())

	// Versioned multi-tenant surface (v1.go): corpora, verifiers, runs.
	mux.HandleFunc("POST /v1/corpora", s.handleCorpusCreate)
	mux.HandleFunc("GET /v1/corpora", s.handleCorpusList)
	mux.HandleFunc("GET /v1/corpora/{id}", s.handleCorpusGet)
	mux.HandleFunc("DELETE /v1/corpora/{id}", s.handleCorpusDelete)
	mux.HandleFunc("PUT /v1/corpora/{id}/relations/{name}", s.handleRelationPut)
	mux.HandleFunc("DELETE /v1/corpora/{id}/relations/{name}", s.handleRelationDelete)
	mux.HandleFunc("POST /v1/corpora/{id}/verifiers", s.handleVerifierCreate)
	mux.HandleFunc("GET /v1/verifiers", s.handleVerifierList)
	mux.HandleFunc("GET /v1/verifiers/{id}", s.handleVerifierGet)
	mux.HandleFunc("DELETE /v1/verifiers/{id}", s.handleVerifierDelete)
	mux.HandleFunc("POST /v1/verifiers/{id}/runs", s.handleRunCreate)

	// Interactive /v1 runs are sessions: the run ID is a session ID, so
	// the run sub-resources are the session handlers.
	mux.HandleFunc("GET /v1/runs/{id}", s.handleSessionProgress)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/runs/{id}/questions", s.handleSessionQuestions)
	mux.HandleFunc("POST /v1/runs/{id}/answers", s.handleSessionAnswers)
	mux.HandleFunc("GET /v1/runs/{id}/report", s.handleSessionReport)
	// Outermost: the metrics middleware, so every response — including a
	// recovered panic's 500 — is counted and timed; then the panic
	// recoverer; then the readiness wall that keeps the API dark (503)
	// until journal replay finishes.
	return s.withMetrics(s.withRecover(s.withReady(mux)))
}

// buildVersion resolves the daemon's version from the embedded build info
// (module version for released builds, VCS revision for source builds).
func buildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	version := info.Main.Version
	var rev, dirty string
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return version + " (" + rev + dirty + ")"
	}
	return version
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness during boot: the process is healthy while journal replay
	// runs, but the registries are still mutating under the replay — so
	// report alive with a minimal body and let /readyz carry the rest.
	if !s.ready.Load() {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":         "starting",
			"version":        buildVersion(),
			"uptime_seconds": int(time.Since(s.started).Seconds()),
		})
		return
	}
	// One stats gather serves every surface: refreshMetrics mirrors the
	// component stats into the /metrics registry and hands back the same
	// snapshot for this JSON body, so the probe and the scrape are two
	// renderings of one source of truth.
	snap := s.refreshMetrics()
	// Per-tenant load at a glance: verifier count per corpus, run count
	// per verifier; live sessions per verifier come from the session
	// registry's owner tags.
	perCorpus := make(map[string]any)
	for _, ci := range snap.corpora {
		perCorpus[ci.ID] = map[string]any{
			"relations": ci.Relations,
			"verifiers": ci.Verifiers,
		}
	}
	perVerifier := make(map[string]any)
	for _, vi := range snap.verifiers {
		perVerifier[vi.ID] = map[string]any{
			"corpus":           vi.CorpusID,
			"runs_started":     vi.Runs,
			"model_generation": vi.Generation,
			"trained_on":       vi.TrainedOn,
			"active_sessions":  snap.sess.ByOwner[vi.ID],
		}
	}
	body := map[string]any{
		"status":  "ok",
		"version": buildVersion(),
		// service: the /v1 registry — tenant counts plus per-corpus and
		// per-verifier breakdowns.
		"service": map[string]any{
			"corpora":      snap.svc.Corpora,
			"verifiers":    snap.svc.Verifiers,
			"runs_started": snap.svc.Runs,
			"per_corpus":   perCorpus,
			"per_verifier": perVerifier,
		},
		"sessions": map[string]any{
			"active":           snap.sess.Active,
			"queued_questions": snap.sess.PendingQuestions,
			"model_generation": snap.sess.MaxGeneration,
			"created_total":    snap.sess.CreatedTotal,
			"evicted_total":    snap.sess.EvictedTotal,
			"answered_total":   snap.sess.AnsweredTotal,
			"by_owner":         snap.sess.ByOwner,
		},
		"parallelism":    s.parallel,
		"score_kernel":   classifier.Kernel(),
		"uptime_seconds": int(time.Since(s.started).Seconds()),
		// admission: the global in-flight gate — shedding means the daemon
		// is at -max-inflight and rejecting expensive requests with 503.
		"admission": snap.gate,
	}
	// store: durable-state health when the daemon runs with -data-dir —
	// journal growth plus what the last boot replayed.
	if snap.hasStore {
		body["store"] = map[string]any{
			"backend":   snap.store,
			"recovered": s.recovered,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// readBody slurps a capped request body, writing the HTTP error itself
// when reading fails. The bool reports success.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
		} else {
			httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return nil, false
	}
	return buf.Bytes(), true
}

// parseOrdering maps the wire name to a core ordering.
func parseOrdering(name string) (core.Ordering, error) {
	switch name {
	case "", "ilp":
		return core.OrderILP, nil
	case "sequential":
		return core.OrderSequential, nil
	case "greedy":
		return core.OrderGreedy, nil
	case "random":
		return core.OrderRandom, nil
	}
	return 0, fmt.Errorf("unknown ordering %q", name)
}

// readDocument parses a document from an envelope field, falling back to
// the whole body when the field is absent (bare-document requests).
func readDocument(raw []byte, field json.RawMessage) (*scrutinizer.Document, error) {
	docBytes := []byte(field)
	if len(docBytes) == 0 {
		docBytes = raw
	}
	return scrutinizer.ReadDocumentJSON(bytes.NewReader(docBytes))
}

// verifyOutcome is one claim's verdict in batch-run and session reports.
type verifyOutcome struct {
	ClaimID int     `json:"claim_id"`
	Verdict string  `json:"verdict"`
	Seconds float64 `json:"seconds"`
	SQL     string  `json:"sql,omitempty"`
	Value   float64 `json:"value"`
	// Suggestion is a pointer so a legitimate zero-valued correction
	// survives serialisation: nil = no correction proposed.
	Suggestion *float64 `json:"suggestion,omitempty"`
}

func toVerifyOutcome(o *scrutinizer.Outcome) verifyOutcome {
	vo := verifyOutcome{
		ClaimID: o.ClaimID,
		Verdict: o.Verdict.String(),
		Seconds: o.Seconds,
		Value:   o.Value,
	}
	if o.Query != nil {
		vo.SQL = o.Query.SQL()
	}
	if o.HasSuggestion {
		s := o.Suggestion
		vo.Suggestion = &s
	}
	return vo
}

// session fetches the handler's session or writes the 404.
func (s *server) session(w http.ResponseWriter, r *http.Request) (*scrutinizer.Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.sessions.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no session %q (expired or never created)", id))
		return nil, false
	}
	return sess, true
}

func (s *server) handleSessionProgress(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sess.Progress())
}

func (s *server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.Remove(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *server) handleSessionQuestions(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	qs := sess.Questions()
	writeJSON(w, http.StatusOK, map[string]any{
		"questions": qs,
		"done":      sess.Done(),
	})
}

// answersRequest posts one or many answers. Both shapes are accepted:
//
//	{"answers": [{"claim_id": 3, "value": "...", "seconds": 2.5}, ...]}
//	{"claim_id": 3, "value": "...", "seconds": 2.5}
type answersRequest struct {
	Answers []scrutinizer.SessionAnswer `json:"answers"`
}

// parseAnswers reads an answers body in either shape of answersRequest.
// Its errors are the 400 texts: "malformed JSON: ..." or "no answers in
// body".
func parseAnswers(raw []byte) ([]scrutinizer.SessionAnswer, error) {
	// Field presence, not zero values, decides the body shape: claim ID 0
	// and an empty value (a skip) are both legitimate answer contents.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, fmt.Errorf("malformed JSON: %w", err)
	}
	var req answersRequest
	if _, ok := fields["answers"]; ok {
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, fmt.Errorf("malformed JSON: %w", err)
		}
	} else if _, ok := fields["claim_id"]; ok {
		var single scrutinizer.SessionAnswer
		if err := json.Unmarshal(raw, &single); err != nil {
			return nil, fmt.Errorf("malformed JSON: %w", err)
		}
		req.Answers = []scrutinizer.SessionAnswer{single}
	}
	if len(req.Answers) == 0 {
		return nil, errors.New("no answers in body")
	}
	return req.Answers, nil
}

// answersResponse reports what was accepted plus the follow-up questions
// for the answered claims, so a checker can keep going without polling.
type answersResponse struct {
	Accepted  int                           `json:"accepted"`
	Questions []scrutinizer.SessionQuestion `json:"questions"`
	Progress  scrutinizer.SessionProgress   `json:"progress"`
}

func (s *server) handleSessionAnswers(w http.ResponseWriter, r *http.Request) {
	leave, ok := s.admit(w)
	if !ok {
		return
	}
	defer leave()
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	// Answers are charged to the run's owner, its verifier, so one tenant
	// hammering its session cannot starve another's.
	if !s.rateLimit(w, sess.Owner()) {
		return
	}
	// A panic while applying answers leaves the session in an undefined
	// state: tear it down (journaled, so recovery will not resurrect it)
	// and let withRecover turn the panic into the 500.
	defer func() {
		if p := recover(); p != nil {
			s.sessions.Remove(sess.ID())
			panic(p)
		}
	}()
	if s.panicHook != nil {
		s.panicHook(r)
	}
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	answers, err := parseAnswers(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.runCtx(r)
	defer cancel()
	resp := answersResponse{}
	for _, a := range answers {
		next, err := sess.Answer(ctx, a)
		if err != nil {
			// A cancelled or timed-out answer was rolled back before being
			// journaled — the question is still pending, so the client can
			// repost it. Anything else is a conflict: the target question
			// is gone (answered already, or the claim finished). Either
			// way, report what was accepted so far.
			status := http.StatusConflict
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				status = verifyErrStatus(err)
				w.Header().Set("Retry-After", "1")
			}
			resp.Progress = sess.Progress()
			writeJSON(w, status, map[string]any{
				"error":    err.Error(),
				"accepted": resp.Accepted,
				"progress": resp.Progress,
			})
			return
		}
		resp.Accepted++
		if next != nil {
			resp.Questions = append(resp.Questions, *next)
		}
	}
	resp.Progress = sess.Progress()
	writeJSON(w, http.StatusOK, resp)
}

// sessionReportResponse is the /v1/runs/{id}/report payload; outcomes
// are partial until Done.
type sessionReportResponse struct {
	ID        string          `json:"id"`
	Done      bool            `json:"done"`
	Claims    int             `json:"claims"`
	Correct   int             `json:"correct"`
	Incorrect int             `json:"incorrect"`
	Skipped   int             `json:"skipped"`
	Accuracy  float64         `json:"accuracy"`
	CrowdSecs float64         `json:"crowd_seconds"`
	Batches   int             `json:"batches"`
	Outcomes  []verifyOutcome `json:"outcomes"`
}

func (s *server) handleSessionReport(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	rep := sess.Report()
	resp := sessionReportResponse{
		ID:        sess.ID(),
		Done:      rep.Done,
		Claims:    sess.Progress().Total,
		Accuracy:  rep.Accuracy,
		CrowdSecs: rep.Seconds,
		Batches:   rep.Batches,
	}
	for _, o := range rep.Outcomes {
		switch o.Verdict {
		case scrutinizer.VerdictCorrect:
			resp.Correct++
		case scrutinizer.VerdictIncorrect:
			resp.Incorrect++
		default:
			resp.Skipped++
		}
		resp.Outcomes = append(resp.Outcomes, toVerifyOutcome(o))
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil && !errors.Is(err, http.ErrHandlerTimeout) {
		daemonLog.Error("encoding response", "err", err)
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
