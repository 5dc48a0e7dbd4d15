package main

// The in-process drive path: the same closed loop executed directly
// against a scrutinizer.Service in this process — no HTTP, no daemon.
// This is the apples-to-apples companion of the root package's
// concurrency benchmarks: it exercises the identical registry, engine
// clone and cache hot paths, so an improvement (or regression) in lock
// behaviour shows up here without network noise on top.

import (
	"context"
	"fmt"
	"time"

	"github.com/repro/scrutinizer"
)

type inprocRunner struct {
	cfg    config
	svc    *scrutinizer.Service
	mgr    *scrutinizer.SessionManager
	crowds *crowdCache
}

func newInprocRunner(cfg config) (*inprocRunner, error) {
	return &inprocRunner{
		cfg: cfg,
		svc: scrutinizer.NewService(),
		// Sessions are removed as soon as the loop completes them; the TTL
		// only reaps the leftovers of errored operations.
		mgr:    scrutinizer.NewSessionManager(time.Minute, 0),
		crowds: newCrowdCache(cfg),
	}, nil
}

func (ir *inprocRunner) setup(tenants []*tenant) error {
	created := make(map[string]bool)
	for _, t := range tenants {
		if !created[t.corpusID] {
			if _, err := ir.svc.AddCorpus(t.corpusID, t.world.Corpus); err != nil {
				return err
			}
			created[t.corpusID] = true
		}
		v, err := ir.svc.CreateVerifier(t.corpusID, t.world.Document, scrutinizer.Options{Seed: ir.cfg.seed})
		if err != nil {
			return err
		}
		t.verifierID = v.ID()
	}
	return nil
}

func (ir *inprocRunner) verifier(t *tenant) (*scrutinizer.Verifier, error) {
	// Per-op registry lookup on purpose: it is part of the hot path under
	// measurement, exactly as every HTTP request resolves its verifier.
	v, ok := ir.svc.Verifier(t.verifierID)
	if !ok {
		return nil, fmt.Errorf("verifier %s disappeared", t.verifierID)
	}
	return v, nil
}

func (ir *inprocRunner) verifyOptions() scrutinizer.VerifyOptions {
	return scrutinizer.VerifyOptions{
		BatchSize:   ir.cfg.batch,
		Parallelism: 1,
		Seed:        ir.cfg.seed,
	}
}

func (ir *inprocRunner) oneOp(worker int, t *tenant, mode string) (opResult, error) {
	if mode == "session" {
		return ir.sessionOp(worker, t)
	}
	return ir.batchOp(t)
}

func (ir *inprocRunner) batchOp(t *tenant) (opResult, error) {
	v, err := ir.verifier(t)
	if err != nil {
		return opResult{}, err
	}
	team, err := v.NewTeam(ir.cfg.team)
	if err != nil {
		return opResult{}, err
	}
	start := time.Now()
	run, err := v.StartRun(context.Background(), t.world.Document)
	if err != nil {
		return opResult{}, err
	}
	res, err := run.Verify(context.Background(), team, ir.verifyOptions())
	run.Close()
	if err != nil {
		return opResult{}, err
	}
	return opResult{
		claims:    len(res.Outcomes),
		latencies: []float64{float64(time.Since(start).Microseconds()) / 1000},
	}, nil
}

func (ir *inprocRunner) sessionOp(worker int, t *tenant) (opResult, error) {
	v, err := ir.verifier(t)
	if err != nil {
		return opResult{}, err
	}
	lc, err := ir.crowds.forWorker(worker, t)
	if err != nil {
		return opResult{}, err
	}
	sess, err := v.StartSession(context.Background(), ir.mgr, t.world.Document, scrutinizer.SessionOptions{Verify: ir.verifyOptions()})
	if err != nil {
		return opResult{}, err
	}
	defer ir.mgr.Remove(sess.ID())

	var res opResult
	queue := sess.Questions()
	emptyPolls := 0
	for {
		if len(queue) == 0 {
			p := sess.Progress()
			if p.Done {
				res.claims = p.Verified
				return res, nil
			}
			queue = sess.Questions()
			if len(queue) == 0 {
				if emptyPolls++; emptyPolls > 3 {
					return res, fmt.Errorf("session %s stalled: not done, no pending questions", sess.ID())
				}
				continue
			}
			emptyPolls = 0
		}
		q := queue[0]
		queue = queue[1:]
		ans, err := lc.answer(q)
		if err != nil {
			return res, err
		}
		start := time.Now()
		next, err := sess.Answer(context.Background(), ans)
		if err != nil {
			// Stale question (the claim already finished); drop it.
			continue
		}
		res.latencies = append(res.latencies, float64(time.Since(start).Microseconds())/1000)
		res.questions++
		if next != nil {
			queue = append(queue, *next)
		}
	}
}
