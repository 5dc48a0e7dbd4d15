package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tenant-churn: a spawned daemon with a durable -data-dir; two clients
// each loop over whole tenant lifecycles — create a corpus, PUT every
// relation as CSV, train a verifier (journal record plus snapshot blob),
// verify the held-out half in one mode=batch run, answer an interactive
// (mode=session) run over HTTP one answer per request through its first
// retrain barrier, delete the corpus. Every lifecycle uses its own
// pre-generated world, so no per-tenant cache, memo or pooled engine is
// ever reused, the journal and snapshot store take large writes, and
// every session answer is journaled and fsynced. The work is a fixed
// number of lifecycles, so the journal replayed on restart has the same
// length on both commits of a comparison.

const (
	// lifecyclesPerSecond sizes the fixed work from --seconds: about this
	// many lifecycles complete per second on the two-CPU box the bounds
	// were set on.
	lifecyclesPerSecond = 7.0
	// churnBlocks splits the lifecycles for the best-block figures; at
	// the default 15 s each block holds ~52 lifecycles, enough for its p75.
	churnBlocks = 2
	// openAnswers is how far the session left open across the crash is
	// pumped.
	openAnswers = 5
)

type lifecycleResult struct {
	wall     time.Duration
	claims   int
	crowdS   float64
	accuracy float64
	digest   string
	ids      []int
	answers  []timedAnswer
	// Traced runs only: the corpus's query cache just before deletion,
	// and for the first lifecycle a scrape while its verifier exists.
	cacheHits, cacheMisses float64
	snapshot               promScrape
}

func runTenantChurn(o options, rep *report) error {
	if o.daemon == "" {
		return fmt.Errorf("tenant-churn needs --daemon")
	}
	n := max(2*clients, int(o.seconds*lifecyclesPerSecond+0.5))
	// One more world than lifecycles: the tenant that survives the crash.
	tenants, err := smallTenants("L", o.seed, n+1)
	if err != nil {
		return err
	}
	crowds := make([]*crowdSource, len(tenants))
	for i, t := range tenants {
		if crowds[i], err = newCrowdSource(t); err != nil {
			return err
		}
	}
	survivor := tenants[n]
	fmt.Printf("inputs: %d small worlds seed=%d claims=%d (train %d, verify %d) relations=%d, batch=%d, clients=%d, team=%d\n",
		n, o.seed, len(tenants[0].world.Document.Claims), len(tenants[0].world.Document.Claims)-len(tenants[0].heldOut.Claims),
		len(tenants[0].heldOut.Claims), len(tenants[0].relations), batchSize, clients, teamSize)

	dir, err := workDir(o)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	d, c, setups, err := setupDaemons(o, dir, func(*apiClient) error { return nil })
	if err != nil {
		return err
	}
	defer d.kill()
	rep.set("setup_s", median(setups), len(setups), "daemon boot to ready on a fresh -data-dir, median")

	var before promScrape
	if o.trace {
		if before, err = c.metrics(); err != nil {
			return err
		}
	}
	results := make([]lifecycleResult, n)
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				res, err := lifecycle(c, tr, tenants[i], crowds[i], i == 0)
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("lifecycle %d: %w", i, err) })
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return firstErr
	}
	var after promScrape
	var loopSpans []span
	if o.trace {
		if after, err = c.metrics(); err != nil {
			return err
		}
		loopSpans = tr.finish()
	}

	var items []workItem
	var claims int
	var crowdS, accW float64
	var perLifecycle []string
	var hits, misses float64
	byKind := map[answerKind][]float64{}
	for i, r := range results {
		checkClaimIDs(rep, "lifecycle", tenants[i].heldOut, r.ids)
		items = append(items, workItem{claims: r.claims, busy: r.wall, lat: []float64{float64(r.wall) / float64(time.Millisecond)}})
		claims += r.claims
		crowdS += r.crowdS
		accW += r.accuracy * float64(r.claims)
		perLifecycle = append(perLifecycle, r.digest)
		hits += r.cacheHits
		misses += r.cacheMisses
		for _, a := range r.answers {
			byKind[a.kind] = append(byKind[a.kind], a.ms)
		}
	}
	dg := &digests{}
	dg.add("run", combine(perLifecycle))

	// One tenant survives with a session open mid-pump; the daemon is
	// crashed and restarted over the same directory.
	if err := survivor.register(c, tr, 0); err != nil {
		return fmt.Errorf("surviving tenant: %w", err)
	}
	open, err := pumpSession(c, tr, 0, survivor, crowds[n].crowd(), func(answers, _ int) bool { return answers >= openAnswers })
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	pending, err := pendingQuestions(c, open.id)
	if err != nil {
		return err
	}
	recov, storeRecovery, err := crashAndRecover(o, c, d, dir, tr, func(rc *apiClient, first bool) error {
		if first {
			checkRestart(rep, rc, survivor, open.id, pending)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.ops(int(c.attempted.Load()), int(c.failed.Load()))

	if !o.trace {
		setBlockMetrics(rep, items, churnBlocks, clients, "one tenant lifecycle (lifecycle_p50_ms)")
		rep.set("recover_s", minOf(recov), len(recov), "SIGKILL, restart over the churned -data-dir, until /readyz is 200; best of repeats")
		rep.set("peak_rss_mb", d.peakRSSMB(), 1, "VmHWM of the daemon under load")
		rep.set("crowd_s_per_claim", crowdS/float64(claims), claims, "batch-run crowd seconds per verified claim")
		rep.set("accuracy", accW/float64(claims), claims, "batch-run accuracy, claim-weighted")
		fmt.Printf("also: lifecycles_per_s=%.6g claims_per_s over the whole loop=%.6g (n=%d) wall_s=%.3f\n",
			float64(n)/wall.Seconds(), float64(claims)/wall.Seconds(), n, wall.Seconds())
	} else {
		for _, route := range []string{"corpus_create", "relation_put", "verifier_create", "batch_run", "corpus_delete"} {
			ms := durationsMS(loopSpans, "http."+route)
			rep.set("http."+route+"_ms", median(ms), len(ms), "client-side, per request")
		}
		ms := durationsMS(loopSpans, "session.create")
		rep.set("session.create_ms", median(ms), len(ms), "POST /v1/verifiers/{id}/runs mode=session")
		for _, k := range []answerKind{answerScreen, answerQuerygen, answerFinal, answerBarrier} {
			rep.set("http.answer_"+string(k)+"_ms", median(byKind[k]), len(byKind[k]), "session answer POSTs classified by step and batch progress")
		}
		setDaemonStoreLayers(rep, before, after, "lifecycle", float64(n))
		setSnapshotSize(rep, results[0].snapshot)
		rep.set("core.querycache_hit_ratio", ratio(hits, hits+misses), int(hits+misses), "each corpus's QueryCache, read before its deletion")
		rep.set("store.recovery_s", storeRecovery, 1, "scrutinizer_store_recovery_seconds after the first restart")
		setServerShare(rep, before, after, loopSpans, "http.", "session.")
		setInProcessLayersAbsent(rep)
		if err := writeTrace(filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)), tr.finish()); err != nil {
			return err
		}
	}
	dg.persist(rep, o, "digest.seed")
	return nil
}

// lifecycle runs one tenant from creation to deletion. Traced runs read
// the corpus's cache statistics before deleting it (its /metrics series
// go with it), and the first lifecycle scrapes the snapshot store while
// its verifier exists.
func lifecycle(c *apiClient, tr *tracer, t *tenant, cs *crowdSource, first bool) (lifecycleResult, error) {
	var res lifecycleResult
	root := tr.newID()
	t0 := time.Now()
	if err := t.register(c, tr, root); err != nil {
		return res, err
	}
	if tr != nil && first {
		m, err := c.metrics()
		if err != nil {
			return res, err
		}
		res.snapshot = m
	}
	body, err := json.Marshal(map[string]any{
		"document":    t.heldOutRaw,
		"mode":        "batch",
		"batch":       batchSize,
		"parallelism": clients,
		"team":        teamSize,
	})
	if err != nil {
		return res, err
	}
	var resp struct {
		CrowdSecs float64 `json:"crowd_seconds"`
		Accuracy  float64 `json:"accuracy"`
		Outcomes  []struct {
			ClaimID int     `json:"claim_id"`
			Verdict string  `json:"verdict"`
			Seconds float64 `json:"seconds"`
			SQL     string  `json:"sql"`
			Value   float64 `json:"value"`
		} `json:"outcomes"`
	}
	ts := time.Now()
	if _, err := c.do(http.MethodPost, "/v1/verifiers/"+t.verifierID+"/runs", body, &resp); err != nil {
		return res, err
	}
	tr.add(0, root, "http.batch_run", t.corpusID, ts, time.Now())

	// A checker then works through the first batch of the same draft
	// interactively, up to and including its retrain barrier.
	sess, err := pumpSession(c, tr, root, t, cs.crowd(), func(_, batches int) bool { return batches >= 1 })
	if err != nil {
		return res, err
	}
	res.answers = sess.answers
	ts = time.Now()
	if _, err := c.do(http.MethodDelete, "/v1/runs/"+sess.id, nil, nil); err != nil {
		return res, err
	}
	tr.add(0, root, "http.run_delete", t.corpusID, ts, time.Now())

	if tr != nil {
		var info struct {
			Cache struct {
				Hits   float64 `json:"hits"`
				Misses float64 `json:"misses"`
			} `json:"query_cache"`
		}
		if _, err := c.do(http.MethodGet, "/v1/corpora/"+t.corpusID, nil, &info); err != nil {
			return res, err
		}
		res.cacheHits, res.cacheMisses = info.Cache.Hits, info.Cache.Misses
	}
	ts = time.Now()
	if _, err := c.do(http.MethodDelete, "/v1/corpora/"+t.corpusID, nil, nil); err != nil {
		return res, err
	}
	end := time.Now()
	tr.add(0, root, "http.corpus_delete", t.corpusID, ts, end)
	tr.add(root, 0, "churn.lifecycle", t.corpusID, t0, end)

	vs := make([]verdict, len(resp.Outcomes))
	for i, o := range resp.Outcomes {
		vs[i] = verdict{claimID: o.ClaimID, verdict: o.Verdict, seconds: o.Seconds, sql: o.SQL, value: o.Value}
		res.ids = append(res.ids, o.ClaimID)
	}
	res.wall = end.Sub(t0)
	res.claims = len(res.ids)
	res.crowdS = resp.CrowdSecs
	res.accuracy = resp.Accuracy
	res.digest = digest(vs)
	return res, nil
}
