package main

// declared is one metric of BENCHMARK.json; metrics_test.go keeps the two
// lists in step with that file.
type declared struct {
	name string
	unit string
}

// endToEnd are the figures a user of the system sees, reported by every
// workload with tracing off. What "latency" times differs by workload:
// one Run.Verify (paper-batch), one tenant lifecycle (tenant-churn).
var endToEnd = []declared{
	{"setup_s", "s"},
	{"claims_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"recover_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"crowd_s_per_claim", "s"},
	{"accuracy", "ratio"},
}

// perLayer are the traced run's figures, measured from outside around
// calls into each layer. A layer a workload does not reach reads 0 there.
var perLayer = []declared{
	{"facade.add_corpus_ms", "ms"},
	{"facade.create_verifier_ms", "ms"},
	{"facade.start_run_ms", "ms"},
	{"core.start_document_ms", "ms"},
	{"core.retrain_ms", "ms"},
	{"core.retrain_share", "ratio"},
	{"core.select_ms", "ms"},
	{"core.select_share", "ratio"},
	{"core.querygen_ms", "ms"},
	{"core.screen_answer_us", "us"},
	{"core.final_answer_us", "us"},
	{"core.rounds_per_run", "count"},
	{"core.rescored_claims_per_round", "count"},
	{"core.querycache_hit_ratio", "ratio"},
	{"feature.memo_hit_ratio", "ratio"},
	{"crowd.oracle_share", "ratio"},
	{"session.create_ms", "ms"},
	{"http.answer_screen_ms", "ms"},
	{"http.answer_querygen_ms", "ms"},
	{"http.answer_final_ms", "ms"},
	{"http.answer_barrier_ms", "ms"},
	{"http.server_share", "ratio"},
	{"http.corpus_create_ms", "ms"},
	{"http.relation_put_ms", "ms"},
	{"http.verifier_create_ms", "ms"},
	{"http.batch_run_ms", "ms"},
	{"http.corpus_delete_ms", "ms"},
	{"guard.rejected", "count"},
	{"store.append_ms", "ms"},
	{"store.appends_per_lifecycle", "count"},
	{"store.journal_bytes_per_lifecycle", "bytes"},
	{"store.snapshot_bytes_per_verifier", "bytes"},
	{"store.recovery_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.uncovered_frac", "ratio"},
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]declared(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// setAbsent reports 0 for layers the workload never calls, so every
// traced run carries the full per-layer set.
func setAbsent(rep *report, names ...string) {
	for _, name := range names {
		if _, ok := rep.metrics[name]; !ok {
			rep.set(name, 0, 0, "not on this workload's path")
		}
	}
}

// setDaemonLayersAbsent zeroes the layers only the daemon workloads reach.
func setDaemonLayersAbsent(rep *report) {
	setAbsent(rep,
		"session.create_ms", "http.answer_screen_ms", "http.answer_querygen_ms", "http.answer_final_ms",
		"http.answer_barrier_ms", "http.server_share", "http.corpus_create_ms", "http.relation_put_ms",
		"http.verifier_create_ms", "http.batch_run_ms", "http.corpus_delete_ms", "guard.rejected",
		"store.append_ms", "store.appends_per_lifecycle", "store.journal_bytes_per_lifecycle",
		"store.snapshot_bytes_per_verifier", "store.recovery_s")
}

// setInProcessLayersAbsent zeroes the layers only the in-process traced
// run can time: inside the daemon they are invisible from outside.
func setInProcessLayersAbsent(rep *report) {
	setAbsent(rep,
		"facade.add_corpus_ms", "facade.create_verifier_ms", "facade.start_run_ms", "core.start_document_ms",
		"core.retrain_ms", "core.retrain_share", "core.select_ms", "core.select_share", "core.querygen_ms",
		"core.screen_answer_us", "core.final_answer_us", "crowd.oracle_share", "trace.overhead_frac",
		"trace.uncovered_frac")
}

// setDaemonStoreLayers fills the figures read from /metrics deltas over
// the measured loop: store, guard, core round counts and cache ratios.
// Journal figures are per op.
func setDaemonStoreLayers(rep *report, before, after promScrape, op string, ops float64) {
	n, secs := histDelta(before, after, "scrutinizer_store_append_seconds")
	rep.set("store.append_ms", 1000*ratio(secs, n), int(n), "journal append incl. fsync, mean from /metrics")
	rep.set("store.appends_per_"+op, ratio(delta(before, after, "scrutinizer_store_appends_total"), ops), int(ops), "journal appends per "+op)
	rep.set("store.journal_bytes_per_"+op, ratio(delta(before, after, "scrutinizer_store_journal_bytes"), ops), int(ops), "journal growth per "+op)
	rep.set("guard.rejected", delta(before, after, "scrutinizer_guard_rejected_total"), int(ops), "guard rejections (must stay 0)")
	rounds := delta(before, after, "scrutinizer_run_rounds_total")
	runs := delta(before, after, "scrutinizer_runs_completed_total")
	scored, scoredSum := histDelta(before, after, "scrutinizer_batch_scored_claims")
	rep.set("core.rounds_per_run", ratio(rounds, runs), int(runs), "from /metrics run counters")
	rep.set("core.rescored_claims_per_round", ratio(scoredSum, rounds), int(scored), "from /metrics batch-scored histogram")
	memoH := delta(before, after, "scrutinizer_feature_memo_hits_total")
	memoM := delta(before, after, "scrutinizer_feature_memo_misses_total")
	rep.set("feature.memo_hit_ratio", ratio(memoH, memoH+memoM), int(memoH+memoM), "feature memo, from /metrics")
}

// setSnapshotSize reads the mean stored model snapshot from one scrape.
func setSnapshotSize(rep *report, m promScrape) {
	n := m.get("scrutinizer_store_snapshots")
	rep.set("store.snapshot_bytes_per_verifier", ratio(m.get("scrutinizer_store_snapshot_bytes"), n), int(n), "stored model snapshot size, from /metrics")
}

// setServerShare compares the server's own request time (the /metrics
// latency histogram of the API routes) with the client-side time of the
// spans whose names start with one of prefixes.
func setServerShare(rep *report, before, after promScrape, spans []span, prefixes ...string) {
	var server float64
	for _, route := range []string{"v1/runs", "v1/verifiers", "v1/corpora"} {
		_, s := histDelta(before, after, "scrutinizer_http_request_seconds", "route", route)
		server += s
	}
	var client float64
	n := 0
	for _, s := range spans {
		for _, p := range prefixes {
			if len(s.Name) >= len(p) && s.Name[:len(p)] == p {
				client += s.dur().Seconds()
				n++
				break
			}
		}
	}
	rep.set("http.server_share", ratio(server, client), n, "server-side request seconds over client-side seconds")
}
