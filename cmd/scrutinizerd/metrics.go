package main

// Daemon observability: one obs.Registry carries every serving-layer
// metric, exposed at GET /metrics in the Prometheus text format. Three
// instrumentation styles, matching how each layer already reports:
//
//   - Event-driven counters for things that happen to requests: the HTTP
//     middleware (withMetrics), the guard rejection paths and the core run
//     observer increment counters at event time.
//   - Scrape-time mirrors for totals a component already maintains in its
//     own atomics (gate shed count, session lifetime counters, query-cache
//     hits): refreshMetrics copies each component's Stats() snapshot into
//     registry instruments. /healthz and /readyz build their JSON from the
//     same snapshot, so the probes and /metrics can never disagree.
//   - The store is wrapped by store.Monitor (see newServerShell), which
//     times appends and replay at the call boundary.

import (
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/feature"
	"github.com/repro/scrutinizer/internal/guard"
	"github.com/repro/scrutinizer/internal/obs"
	"github.com/repro/scrutinizer/internal/session"
	"github.com/repro/scrutinizer/internal/table"
)

// daemonMetrics bundles the registry and the instruments handlers touch
// directly; mirror gauges live only in refreshMetrics' closures.
type daemonMetrics struct {
	reg *obs.Registry

	// HTTP layer, maintained by withMetrics.
	httpRequests *obs.CounterVec   // route, code
	httpLatency  *obs.HistogramVec // route
	httpInflight *obs.Gauge

	// Guard layer: one counter per rejection path, incremented where the
	// 429/503 is written.
	rejected     *obs.CounterVec // reason
	drainSeconds *obs.Gauge

	// Core run lifecycle, driven by the core.Observer installed in
	// newServerShell.
	runsStarted    *obs.Counter
	runsCompleted  *obs.Counter
	runsCancelled  *obs.Counter
	rounds         *obs.Counter
	retrains       *obs.Counter
	warmFits       *obs.Counter
	coldFits       *obs.Counter
	batchScoreSize *obs.Histogram

	// Scrape-time mirrors refreshed from component stats.
	sessionsActive   *obs.Gauge
	sessionsPending  *obs.Gauge
	sessionsCreated  *obs.Counter
	sessionsEvicted  *obs.Counter
	sessionsAnswered *obs.Counter
	admissionIn      *obs.Gauge
	admissionShed    *obs.Counter
	corpora          *obs.Gauge
	verifiers        *obs.Gauge
	verifierRuns     *obs.Counter
	qcacheHits       *obs.CounterVec // corpus
	qcacheMisses     *obs.CounterVec // corpus
	qcacheEntries    *obs.GaugeVec   // corpus
	memoHits         *obs.Counter
	memoMisses       *obs.Counter
}

// newDaemonMetrics builds the registry and registers every instrument.
// Runtime basics (goroutines, heap) are Func metrics read at scrape time.
func newDaemonMetrics(started time.Time) *daemonMetrics {
	reg := obs.NewRegistry()
	m := &daemonMetrics{
		reg: reg,
		httpRequests: reg.NewCounterVec("scrutinizer_http_requests_total",
			"HTTP requests served, by route class and status code.", "route", "code"),
		httpLatency: reg.NewHistogramVec("scrutinizer_http_request_seconds",
			"HTTP request latency by route class.", obs.DefLatencyBuckets, "route"),
		httpInflight: reg.NewGauge("scrutinizer_http_inflight_requests",
			"HTTP requests currently being served."),
		rejected: reg.NewCounterVec("scrutinizer_guard_rejected_total",
			"Requests rejected by tenant protection, by reason (rate_limit, run_quota, gate_shed, not_ready).", "reason"),
		drainSeconds: reg.NewGauge("scrutinizer_shutdown_drain_seconds",
			"Duration of the admission-gate drain during the last shutdown."),
		runsStarted: reg.NewCounter("scrutinizer_runs_started_total",
			"Verification runs started (batch and interactive)."),
		runsCompleted: reg.NewCounter("scrutinizer_runs_completed_total",
			"Verification runs that resolved every claim."),
		runsCancelled: reg.NewCounter("scrutinizer_runs_cancelled_total",
			"Synchronous verification runs stopped by cancellation or timeout."),
		rounds: reg.NewCounter("scrutinizer_run_rounds_total",
			"Batch-selection rounds executed (Algorithm 1 OptBatch)."),
		retrains: reg.NewCounter("scrutinizer_model_retrains_total",
			"Classifier retrains at batch barriers."),
		batchScoreSize: reg.NewHistogram("scrutinizer_batch_scored_claims",
			"Stale claims featurized and scored per batch-scoring round.",
			obs.ExpBuckets(1, 2, 12)),
		sessionsActive: reg.NewGauge("scrutinizer_sessions_active",
			"Live interactive sessions."),
		sessionsPending: reg.NewGauge("scrutinizer_sessions_pending_questions",
			"Queued questions across live sessions."),
		sessionsCreated: reg.NewCounter("scrutinizer_sessions_created_total",
			"Sessions created since process start."),
		sessionsEvicted: reg.NewCounter("scrutinizer_sessions_evicted_total",
			"Sessions evicted by the idle TTL."),
		sessionsAnswered: reg.NewCounter("scrutinizer_session_answers_total",
			"Answers accepted by live sessions (excluding recovery replay)."),
		admissionIn: reg.NewGauge("scrutinizer_admission_inflight",
			"Expensive requests inside the global admission gate."),
		admissionShed: reg.NewCounter("scrutinizer_admission_shed_total",
			"Requests shed by the global admission gate since process start."),
		corpora: reg.NewGauge("scrutinizer_corpora",
			"Registered corpora."),
		verifiers: reg.NewGauge("scrutinizer_verifiers",
			"Registered (trained) verifiers."),
		verifierRuns: reg.NewCounter("scrutinizer_verifier_runs_started_total",
			"Runs started across all registered verifiers."),
		qcacheHits: reg.NewCounterVec("scrutinizer_querycache_hits_total",
			"Tentative-execution query cache hits, by corpus.", "corpus"),
		qcacheMisses: reg.NewCounterVec("scrutinizer_querycache_misses_total",
			"Tentative-execution query cache misses, by corpus.", "corpus"),
		qcacheEntries: reg.NewGaugeVec("scrutinizer_querycache_entries",
			"Memoized (formula, context) pairs in the query cache, by corpus.", "corpus"),
		memoHits: reg.NewCounter("scrutinizer_feature_memo_hits_total",
			"Feature-vector memo hits (process-wide)."),
		memoMisses: reg.NewCounter("scrutinizer_feature_memo_misses_total",
			"Feature-vector memo misses (process-wide)."),
	}
	fits := reg.NewCounterVec("scrutinizer_classifier_fits_total",
		"Property classifiers fitted at batch barriers, by fit (warm, cold).", "fit")
	m.warmFits, m.coldFits = fits.With("warm"), fits.With("cold")
	reg.NewGaugeFunc("scrutinizer_go_goroutines",
		"Live goroutines.", func() float64 { return float64(runtime.NumGoroutine()) })
	reg.NewGaugeFunc("scrutinizer_go_heap_alloc_bytes",
		"Heap bytes allocated and still in use.", func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.NewGaugeFunc("scrutinizer_uptime_seconds",
		"Seconds since process start.", func() float64 { return time.Since(started).Seconds() })
	reg.NewGaugeVec("scrutinizer_build_info",
		"Build metadata; value is always 1.", "version").With(buildVersion()).Set(1)
	return m
}

// observer wires the core run-lifecycle hooks into the counters. Installed
// process-wide in newServerShell.
func (m *daemonMetrics) observer() *core.Observer {
	return &core.Observer{
		RunStarted:   m.runsStarted.Inc,
		RunCompleted: m.runsCompleted.Inc,
		RunCancelled: m.runsCancelled.Inc,
		Round:        m.rounds.Inc,
		Retrain:      m.retrains.Inc,
		ModelFit: func(warm bool) {
			if warm {
				m.warmFits.Inc()
			} else {
				m.coldFits.Inc()
			}
		},
		BatchScored: func(n int) { m.batchScoreSize.Observe(float64(n)) },
	}
}

// statsSnapshot is one consistent gather of every component's stats — the
// single source both /metrics (via the scrape hook) and the health probes
// render from.
type statsSnapshot struct {
	corpus    table.Stats
	index     table.IndexStats
	sess      session.Stats
	qc        scrutinizer.QueryCacheStats
	svc       scrutinizer.ServiceStats
	corpora   []scrutinizer.CorpusInfo
	verifiers []scrutinizer.VerifierInfo
	gate      guard.GateStats
	store     scrutinizer.StoreStats
	hasStore  bool
}

// refreshMetrics gathers every component's stats, mirrors them into the
// registry, and returns the snapshot for probe handlers. Safe before boot
// completes: registry-dependent sections are skipped until ready.
func (s *server) refreshMetrics() statsSnapshot {
	snap := statsSnapshot{
		sess: s.sessions.Stats(),
		gate: s.gate.Stats(),
	}
	m := s.metrics
	m.sessionsActive.Set(float64(snap.sess.Active))
	m.sessionsPending.Set(float64(snap.sess.PendingQuestions))
	m.sessionsCreated.Set(float64(snap.sess.CreatedTotal))
	m.sessionsEvicted.Set(float64(snap.sess.EvictedTotal))
	m.sessionsAnswered.Set(float64(snap.sess.AnsweredTotal))
	m.admissionIn.Set(float64(snap.gate.InFlight))
	m.admissionShed.Set(float64(snap.gate.Shed))
	hits, misses := feature.MemoStats()
	m.memoHits.Set(float64(hits))
	m.memoMisses.Set(float64(misses))
	if !s.ready.Load() {
		return snap
	}
	snap.corpus = s.corpus.Stats()
	snap.index = s.corpus.Index().Stats()
	snap.qc = s.qcache.Stats()
	snap.svc = s.svc.Stats()
	snap.corpora = s.svc.Corpora()
	snap.verifiers = s.svc.Verifiers()
	snap.store, snap.hasStore = s.svc.StoreStats()
	m.corpora.Set(float64(snap.svc.Corpora))
	m.verifiers.Set(float64(snap.svc.Verifiers))
	m.verifierRuns.Set(float64(snap.svc.Runs))
	for _, ci := range snap.corpora {
		m.qcacheHits.With(ci.ID).Set(float64(ci.Cache.Hits))
		m.qcacheMisses.With(ci.ID).Set(float64(ci.Cache.Misses))
		m.qcacheEntries.With(ci.ID).Set(float64(ci.Cache.Entries))
	}
	return snap
}

// routeClass maps a request path to a fixed, low-cardinality route label.
// Path parameters (session IDs, corpus IDs) never reach a label.
func routeClass(path string) string {
	switch {
	case path == "/healthz":
		return "healthz"
	case path == "/readyz":
		return "readyz"
	case path == "/metrics":
		return "metrics"
	case path == "/verify":
		return "verify"
	case path == "/sessions" || strings.HasPrefix(path, "/sessions/"):
		return "sessions"
	case path == "/v1/corpora" || strings.HasPrefix(path, "/v1/corpora/"):
		return "v1/corpora"
	case path == "/v1/verifiers" || strings.HasPrefix(path, "/v1/verifiers/"):
		return "v1/verifiers"
	case strings.HasPrefix(path, "/v1/runs/"):
		return "v1/runs"
	}
	return "other"
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// withMetrics is the outermost middleware: it wraps even the panic
// recoverer so a recovered 500 is counted and timed like any response.
func (s *server) withMetrics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := s.metrics
		route := routeClass(r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		m.httpInflight.Inc()
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		m.httpLatency.With(route).Observe(elapsed.Seconds())
		m.httpRequests.With(route, strconv.Itoa(sw.status)).Inc()
		m.httpInflight.Dec()
		daemonLog.Debug("request",
			"method", r.Method, "route", route, "code", sw.status,
			"ms", elapsed.Milliseconds())
	})
}
