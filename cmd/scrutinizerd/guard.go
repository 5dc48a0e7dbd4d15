package main

// Tenant protection under overload. Every expensive route (verification
// runs, verifier training, session creation, answer posts) passes three
// O(1) admission checks before any engine or store work starts, cheapest
// first:
//
//  1. s.admit — the global in-flight gate. Over -max-inflight the request
//     is shed with 503 + Retry-After; nothing ever queues, so overload
//     cannot accumulate goroutines. The gate also counts unbounded, which
//     is what lets shutdown drain handlers before closing the store.
//  2. s.rateLimit — the per-tenant token bucket (-rate-limit/-rate-burst).
//     A tenant sending too fast gets 429 with a Retry-After computed from
//     its own bucket; other tenants' buckets are untouched.
//  3. s.acquireRun / runQuotaFree — the per-tenant concurrent-run quota
//     (-max-runs-per-tenant): batch runs hold a slot for the request,
//     interactive runs are counted via the session registry's owner tags.
//
// Tenant keys follow the resource being charged: the verifier ID for runs
// and answers, the corpus ID for verifier training.
//
// The route tree is wrapped in two middlewares: withRecover converts
// handler panics into logged 500s (a panicking request must not kill the
// daemon), and withReady fails every API route with 503 until boot-time
// journal replay has finished — /healthz (liveness) and /readyz stay
// reachable throughout.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// admit passes the request through the global admission gate. On shed it
// writes the 503 itself; the caller must defer leave() when ok.
func (s *server) admit(w http.ResponseWriter) (leave func(), ok bool) {
	leave, ok = s.gate.Enter()
	if !ok {
		s.metrics.rejected.With("gate_shed").Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("server at capacity (%d requests in flight); retry shortly", s.cfg.maxInflight))
	}
	return leave, ok
}

// rateLimit spends one token from key's bucket, writing the 429 (with the
// bucket's own refill time as Retry-After) when the tenant is over rate.
func (s *server) rateLimit(w http.ResponseWriter, key string) bool {
	ok, retryAfter := s.rates.Allow(key)
	if !ok {
		s.metrics.rejected.With("rate_limit").Inc()
		secs := int(retryAfter/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over rate limit (%.3g requests/s); retry in %ds", key, s.cfg.rateLimit, secs))
	}
	return ok
}

// runsInFlight counts key's live runs in both accounting domains: batch
// runs holding quota slots plus interactive sessions tagged with the key.
func (s *server) runsInFlight(key string) int {
	return s.runQuota.InFlight(key) + s.sessions.Stats().ByOwner[key]
}

// runQuotaFree checks (without claiming) that key has a free run slot,
// writing the 429 when it does not. Interactive runs use this: once the
// session is created the registry's owner tag carries the count.
func (s *server) runQuotaFree(w http.ResponseWriter, key string) bool {
	if s.runQuota == nil {
		return true
	}
	if n := s.runsInFlight(key); n >= s.cfg.maxRunsPerTenant {
		s.metrics.rejected.With("run_quota").Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q at its concurrent-run quota (%d); finish or delete a run first", key, s.cfg.maxRunsPerTenant))
		return false
	}
	return true
}

// acquireRun claims a batch-run slot under key for the duration of the
// request, writing the 429 on rejection. The caller must defer release()
// when ok.
func (s *server) acquireRun(w http.ResponseWriter, key string) (release func(), ok bool) {
	if !s.runQuotaFree(w, key) {
		return nil, false
	}
	release, ok = s.runQuota.Acquire(key)
	if !ok {
		// Lost the race between the combined check and the claim.
		s.metrics.rejected.With("run_quota").Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q at its concurrent-run quota (%d)", key, s.cfg.maxRunsPerTenant))
	}
	return release, ok
}

// runCtx derives the verification context for one request: cancelled when
// the client disconnects (or the server drains), and additionally bounded
// by -request-timeout when set. Core checkpoints observe it between
// verification rounds, batch-selection scans and enumeration batches.
func (s *server) runCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.requestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.requestTimeout)
	}
	return context.WithCancel(r.Context())
}

// verifyErrStatus maps a verification error to its HTTP status: a server
// deadline is a 504, a cancellation (client gone, or the daemon draining)
// is a 503, anything else is a genuine 500.
func verifyErrStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handleReadyz is the readiness probe: 503 while boot-time journal replay
// is still running (the API would race the replay), 200 once serving.
// Shedding is reported as "degraded" — still ready, but at capacity —
// with the gate's numbers so an operator can see the pressure.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "starting",
			"ready":  false,
			"reason": "journal replay in progress",
		})
		return
	}
	// Same gather as /healthz and /metrics: one source of truth.
	snap := s.refreshMetrics()
	status := "ok"
	if snap.gate.Shedding {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"ready":     true,
		"admission": snap.gate,
	})
}

// withReady fails every API route with 503 until boot has finished
// journal replay; the probes stay reachable so liveness reports green
// (the process is healthy) while readiness reports not-ready.
func (s *server) withReady(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/readyz" && r.URL.Path != "/metrics" {
			s.metrics.rejected.With("not_ready").Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "recovering journaled state; retry shortly")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withRecover turns a handler panic into a logged 500. One poisoned
// request (or a bug in a single handler) must cost that request alone,
// never the daemon: every other tenant's sessions and runs keep serving.
func (s *server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				daemonLog.Error("panic serving request",
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				httpError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}
