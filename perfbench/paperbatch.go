package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/feature"
)

// paper-batch: one client verifies the held-out half of a paper-scale
// world (§6: 1539 claims, 96 sections, 413 formulas) with a verifier
// trained on the other half, in process, over and over. Retraining, batch
// scoring, the ILP scheduler and Algorithm 2 do nearly all the work; HTTP,
// sessions and the store are not on the path, and the verifier's caches
// are warm after the warm-up run.

const (
	paperBatchSize = 100
	setupRepeats   = 3
	// paperRecoverRepeats is lower than recoverRepeats: one paper-scale
	// recovery takes seconds, and the run has to fit its time budget.
	paperRecoverRepeats = 1
)

// randomSplit draws half of the document's claims, seeded, as the
// training archive; both halves keep document order.
func randomSplit(d *scrutinizer.Document, seed int64) (train, held *scrutinizer.Document) {
	inTrain := make([]bool, len(d.Claims))
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(d.Claims))[:len(d.Claims)/2] {
		inTrain[i] = true
	}
	train = &scrutinizer.Document{Title: d.Title + " (checked)", Sections: d.Sections}
	held = &scrutinizer.Document{Title: d.Title + " (draft)", Sections: d.Sections}
	for i, c := range d.Claims {
		if inTrain[i] {
			train.Claims = append(train.Claims, c)
		} else {
			held.Claims = append(held.Claims, c)
		}
	}
	return train, held
}

func paperVerifyOptions() scrutinizer.VerifyOptions {
	return scrutinizer.VerifyOptions{BatchSize: paperBatchSize, Parallelism: clients}
}

// paperSetup registers the corpus and trains the verifier on a fresh
// service: the set-up a deployment pays before its first run.
func paperSetup(w *scrutinizer.World, train *scrutinizer.Document, seed int64, tr *tracer) (*scrutinizer.Service, string, *scrutinizer.Verifier, error) {
	svc := scrutinizer.NewService()
	t0 := time.Now()
	cid, err := svc.AddCorpus("paper", w.Corpus)
	if err != nil {
		return nil, "", nil, err
	}
	t1 := time.Now()
	v, err := svc.CreateVerifier(cid, train, scrutinizer.Options{Seed: seed})
	if err != nil {
		return nil, "", nil, err
	}
	t2 := time.Now()
	tr.add(0, 0, "facade.add_corpus", "setup", t0, t1)
	tr.add(0, 0, "facade.create_verifier", "setup", t1, t2)
	return svc, cid, v, nil
}

func runPaperBatch(o options, rep *report) error {
	// The paper verifies one document against one corpus, so every seed
	// uses the paper-scale world itself; the seed draws which half of its
	// claims is the archive of previously checked claims and seeds the
	// verifier and the crowd.
	cfg := scrutinizer.PaperWorld()
	w, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		return fmt.Errorf("generating world: %w", err)
	}
	train, held := randomSplit(w.Document, o.seed)
	fmt.Printf("inputs: paper-scale world (world seed %d) claims=%d, split seed %d: train %d, verify %d; sections=%d formulas=%d batch=%d parallelism=%d team=%d\n",
		cfg.Seed, len(w.Document.Claims), o.seed, len(train.Claims), len(held.Claims), w.Document.Sections, cfg.NumFormulas, paperBatchSize, clients, teamSize)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setups []float64
	var svc *scrutinizer.Service
	var cid string
	var v *scrutinizer.Verifier
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if svc, cid, v, err = paperSetup(w, train, o.seed, tr); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Collect the discarded services now, so their garbage does not
		// pile onto the peak resident set of the measured loop.
		runtime.GC()
	}
	rep.set("setup_s", median(setups), len(setups), "AddCorpus + CreateVerifier on a fresh Service, median")
	team, err := newCrowdTeam()
	if err != nil {
		return err
	}

	dg := &digests{}
	ops := 0
	verify := func() (*scrutinizer.Result, time.Duration, error) {
		ops++
		t0 := time.Now()
		run, err := v.StartRun(bgCtx, held)
		if err != nil {
			return nil, 0, err
		}
		defer run.Close()
		res, err := run.Verify(bgCtx, team, paperVerifyOptions())
		return res, time.Since(t0), err
	}
	// Warm-up: fills the verifier's engine pool, query cache and memo.
	res, _, err := verify()
	if err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	dg.add("warm-up", outcomeDigest(res.Outcomes))
	checkOutcomes(rep, "warm-up", held, res.Outcomes)

	// The untraced loop runs in both modes: its figures are the
	// end-to-end metrics, and the traced run's overhead baseline.
	// Measure for about --seconds: at least two runs, and no run that
	// would end well past the budget.
	var items []workItem
	start := time.Now()
	for len(items) < 2 || time.Since(start)+items[len(items)-1].busy/2 < time.Duration(o.seconds*float64(time.Second)) {
		res, wall, err := verify()
		if err != nil {
			return fmt.Errorf("verify run %d: %w", len(items)+1, err)
		}
		items = append(items, workItem{claims: len(res.Outcomes), busy: wall, lat: []float64{float64(wall) / float64(time.Millisecond)}})
		dg.add(fmt.Sprintf("run %d", len(items)), outcomeDigest(res.Outcomes))
		checkOutcomes(rep, fmt.Sprintf("run %d", len(items)), held, res.Outcomes)
	}

	if !o.trace {
		// Each verify run is a block of one sample, so its tail is the
		// run itself.
		setBlockMetrics(rep, items, len(items), 1, "StartRun + Run.Verify of the held-out half")
		// Every run's verdicts are the warm-up's (the digests are checked).
		rep.set("crowd_s_per_claim", res.Seconds/float64(len(res.Outcomes)), len(res.Outcomes), "simulated crowd seconds per verified claim")
		rep.set("accuracy", res.Accuracy(), len(res.Outcomes), "verdicts matching the injected errors")
		// The peak is read before the recovery probe, which is not part
		// of the verify loop.
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return err
		}
		rep.set("peak_rss_mb", float64(ru.Maxrss)/1024, 1, "VmHWM of the benchmark process, which hosts the system, after the verify loop")
		recov, err := paperRecovery(o, w, train)
		if err != nil {
			return fmt.Errorf("recovery probe: %w", err)
		}
		rep.set("recover_s", minOf(recov), len(recov), "OpenFileStore + Service.Recover of the paper-scale corpus and verifier, best of repeats")
	} else {
		if err := paperTraced(o, rep, tr, v, svc, cid, team, held, dg, bestBlock(blocks(items, len(items), 1)).rate); err != nil {
			return err
		}
		ops += len(tracedRuns(tr))
	}
	dg.check(rep, "digest.runs")
	dg.persist(rep, o, "digest.seed")
	rep.ops(ops, 0)
	return nil
}

// paperRecovery journals the paper-scale corpus and verifier into a file
// store, then times a fresh service recovering from it. The store stays
// off the measured verify loop; this probe is what a restart costs.
func paperRecovery(o options, w *scrutinizer.World, train *scrutinizer.Document) ([]float64, error) {
	dir, err := workDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dataDir := filepath.Join(dir, "data")
	st, err := scrutinizer.OpenFileStore(dataDir)
	if err != nil {
		return nil, err
	}
	svc := scrutinizer.NewService()
	if _, err := svc.Recover(st, nil); err != nil {
		st.Close()
		return nil, err
	}
	if _, err := svc.AddCorpus("paper", w.Corpus); err != nil {
		st.Close()
		return nil, err
	}
	if _, err := svc.CreateVerifier("paper", train, scrutinizer.Options{Seed: o.seed}); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < paperRecoverRepeats; i++ {
		t0 := time.Now()
		st, err := scrutinizer.OpenFileStore(dataDir)
		if err != nil {
			return nil, err
		}
		stats, err := scrutinizer.NewService().Recover(st, nil)
		elapsed := time.Since(t0)
		st.Close()
		if err != nil {
			return nil, err
		}
		if stats.Corpora != 1 || stats.Verifiers != 1 {
			return nil, fmt.Errorf("recovered %d corpora and %d verifiers, want 1 and 1", stats.Corpora, stats.Verifiers)
		}
		out = append(out, elapsed.Seconds())
	}
	return out, nil
}

// paperCounters are the core observer's round-level counts.
type paperCounters struct {
	rounds, rescored atomic.Int64
}

// paperTraced drives the same runs through the step API — Run.Engine's
// StartDocument and DocumentRun.Answer, at the parallelism Run.Verify
// uses — with a span around every call, and reports the per-layer
// figures. From outside, scheduler, planner and classifier time are only
// visible inside the retrain and select spans.
func paperTraced(o options, rep *report, tr *tracer, v *scrutinizer.Verifier, svc *scrutinizer.Service, cid string,
	team *scrutinizer.Team, held *scrutinizer.Document, dg *digests, untracedRate float64) error {
	var cnt paperCounters
	core.SetObserver(&core.Observer{
		Round:       func() { cnt.rounds.Add(1) },
		BatchScored: func(n int) { cnt.rescored.Add(int64(n)) },
	})
	defer core.SetObserver(nil)
	qc, _ := svc.CorpusQueryCache(cid)
	qc0 := qc.Stats()
	memoHits0, memoMisses0 := feature.MemoStats()

	var rates []float64
	start := time.Now()
	for len(rates) < 2 || time.Since(start).Seconds() < o.seconds {
		name := fmt.Sprintf("traced %d", len(rates)+1)
		outcomes, wall, err := tracedVerify(tr, v, team, held, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rates = append(rates, float64(len(outcomes))/wall.Seconds())
		dg.add(name, outcomeDigest(outcomes))
		checkOutcomes(rep, name, held, outcomes)
	}
	qc1 := qc.Stats()
	memoHits1, memoMisses1 := feature.MemoStats()

	spans := tr.finish()
	roots := tracedRuns(tr)
	var wall, uncovered float64
	for _, r := range roots {
		wall += r.dur().Seconds()
		uncovered = max(uncovered, uncoveredShare(spans, r))
	}
	ms := func(name string) []float64 { return durationsMS(spans, name) }
	retrain, sel := ms("core.retrain"), ms("core.select")
	claimTime := sum(ms("core.claim"))
	n := float64(len(roots))

	rep.set("facade.add_corpus_ms", median(ms("facade.add_corpus")), len(ms("facade.add_corpus")), "Service.AddCorpus")
	rep.set("facade.create_verifier_ms", median(ms("facade.create_verifier")), len(ms("facade.create_verifier")), "Service.CreateVerifier (feature fit + training)")
	rep.set("facade.start_run_ms", median(ms("facade.start_run")), len(ms("facade.start_run")), "Verifier.StartRun (pooled engine spawn)")
	rep.set("core.start_document_ms", median(ms("core.start_document")), len(ms("core.start_document")), "Engine.StartDocument (first scoring + ILP)")
	rep.set("core.retrain_ms", median(retrain), len(retrain), "barrier answer start to AfterBatch")
	rep.set("core.retrain_share", sum(retrain)/1000/wall, len(retrain), "of run wall time")
	rep.set("core.select_ms", median(sel), len(sel), "AfterBatch to the barrier answer's return (rescoring, ILP, planning)")
	rep.set("core.select_share", sum(sel)/1000/wall, len(sel), "of run wall time")
	rep.set("core.querygen_ms", median(ms("core.answer.querygen")), len(ms("core.answer.querygen")), "answers that built a final screen (Algorithm 2)")
	rep.set("core.screen_answer_us", 1000*median(ms("core.answer.screen")), len(ms("core.answer.screen")), "property-screen answers")
	rep.set("core.final_answer_us", 1000*median(ms("core.answer.final")), len(ms("core.answer.final")), "final-screen answers that closed no batch")
	rep.set("core.rounds_per_run", float64(cnt.rounds.Load())/n, len(roots), "core.Observer Round")
	rep.set("core.rescored_claims_per_round", ratio(float64(cnt.rescored.Load()), float64(cnt.rounds.Load())), int(cnt.rounds.Load()), "core.Observer BatchScored")
	rep.set("core.querycache_hit_ratio", hitRatio(qc1.Hits-qc0.Hits, qc1.Misses-qc0.Misses), int(qc1.Hits-qc0.Hits+qc1.Misses-qc0.Misses), "corpus QueryCache over the traced runs")
	rep.set("feature.memo_hit_ratio", hitRatio(memoHits1-memoHits0, memoMisses1-memoMisses0), int(memoHits1-memoHits0+memoMisses1-memoMisses0), "feature memo over the traced runs")
	rep.set("crowd.oracle_share", ratio(sum(ms("crowd.oracle")), claimTime), len(ms("crowd.oracle")), "of per-claim pump time")
	rep.set("trace.overhead_frac", 1-maxOf(rates)/untracedRate, len(rates), "best traced vs best untraced run, claims/s")
	rep.set("trace.uncovered_frac", uncovered, len(roots), "largest share of a run's wall time no span covers")
	rep.check("trace.coverage", uncovered <= 0.05, "uncovered %.4f of run wall time (limit 0.05)", uncovered)
	setDaemonLayersAbsent(rep)
	return writeTrace(filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)), spans)
}

// tracedRuns returns the root span of every traced verify run.
func tracedRuns(tr *tracer) []span {
	var out []span
	for _, s := range tr.finish() {
		if s.Name == "paper-batch.run" {
			out = append(out, s)
		}
	}
	return out
}

func hitRatio(hits, misses uint64) float64 { return ratio(float64(hits), float64(hits+misses)) }

// tracedVerify is Run.Verify re-expressed over the step API with spans.
func tracedVerify(tr *tracer, v *scrutinizer.Verifier, team *scrutinizer.Team, doc *scrutinizer.Document, name string) ([]*core.Outcome, time.Duration, error) {
	root := tr.newID()
	t0 := time.Now()
	run, err := v.StartRun(bgCtx, doc)
	if err != nil {
		return nil, 0, err
	}
	defer run.Close()
	tr.add(0, root, "facade.start_run", name, t0, time.Now())
	engine := run.Engine()

	// AfterBatch fires on the goroutine whose answer closed the batch,
	// between retraining and the next batch selection.
	var afterBatch atomic.Int64
	vc := core.VerifyConfig{
		BatchSize:   paperBatchSize,
		Parallelism: clients,
		Checkers:    team.Size(),
		AfterBatch:  func(int, int, []*core.Outcome) { afterBatch.Store(time.Now().UnixNano()) },
	}
	ts := time.Now()
	dr, err := engine.StartDocument(bgCtx, doc, vc)
	if err != nil {
		return nil, 0, err
	}
	tr.add(0, root, "core.start_document", name, ts, time.Now())
	byID := make(map[int]*scrutinizer.Claim, len(doc.Claims))
	for _, c := range doc.Claims {
		byID[c.ID] = c
	}

	// Final-step answers are named once their batch is over: the one that
	// ran the retrain barrier is only known when AfterBatch has fired.
	type finalAnswer struct {
		parent int64
		a0, a1 time.Time
	}
	var mu sync.Mutex
	var finals []finalAnswer
	pump := func(id int) error {
		claimSpan := tr.newID()
		cs := time.Now()
		defer func() { tr.add(claimSpan, root, "core.claim", name, cs, time.Now()) }()
		oracle, err := engine.NewTeamOracle(team.ForClaim(id))
		if err != nil {
			return err
		}
		c := byID[id]
		for {
			q := dr.QuestionFor(id)
			if q == nil {
				return nil
			}
			o0 := time.Now()
			var value string
			var secs float64
			if q.Step == core.StepFinal {
				value, secs = oracle.AnswerFinal(c, q.Candidates)
			} else {
				value, secs = oracle.AnswerProperty(c, q.Property, q.Options)
			}
			a0 := time.Now()
			tr.add(0, claimSpan, "crowd.oracle", name, o0, a0)
			next, err := dr.Answer(bgCtx, id, value, secs)
			a1 := time.Now()
			if err != nil {
				return err
			}
			if q.Step == core.StepFinal {
				mu.Lock()
				finals = append(finals, finalAnswer{claimSpan, a0, a1})
				mu.Unlock()
				continue
			}
			kind := classifyAnswer(false, next != nil && next.Step == core.StepFinal, false)
			tr.add(0, claimSpan, "core.answer."+string(kind), name, a0, a1)
		}
	}
	for !dr.Done() {
		ids := dr.BatchClaims()
		finals = finals[:0]
		var next atomic.Int64
		errs := make([]error, len(ids))
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(ids); i = int(next.Add(1)) - 1 {
					errs[i] = pump(ids[i])
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, 0, fmt.Errorf("claim %d: %w", ids[i], err)
			}
		}
		hook := time.Unix(0, afterBatch.Swap(0))
		barrier := barrierAnswer(len(finals), func(i int) (time.Time, time.Time) { return finals[i].a0, finals[i].a1 }, hook)
		if barrier < 0 {
			return nil, 0, fmt.Errorf("no final answer spans the retrain barrier at %v", hook)
		}
		for i, f := range finals {
			kind := classifyAnswer(true, false, i == barrier)
			id := tr.add(0, f.parent, "core.answer."+string(kind), name, f.a0, f.a1)
			if kind == answerBarrier {
				tr.add(0, id, "core.retrain", name, f.a0, hook)
				tr.add(0, id, "core.select", name, hook, f.a1)
			}
		}
	}
	res, err := dr.Result()
	if err != nil {
		return nil, 0, err
	}
	end := time.Now()
	tr.add(root, 0, "paper-batch.run", name, t0, end)
	return res.Outcomes, end.Sub(t0), nil
}
