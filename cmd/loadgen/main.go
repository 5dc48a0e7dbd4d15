// Command loadgen is the closed-loop multi-tenant load harness: it drives
// a live scrutinizerd (-addr) or an in-process Service (default) with
// M corpora × V verifiers × C concurrent clients and reports aggregate
// claims/s, questions/s and p50/p95/p99 latency as LOAD_<date>.json.
//
// Closed loop means each of the C workers completes one full operation —
// a batch document verification, or an interactive session pumped from
// creation to Done — before starting the next, so concurrency is exactly
// C in-flight operations and throughput reflects what the service
// sustains, not what an open firehose piles up. Workers rotate round-robin
// over the tenants, so every (corpus, verifier) pair stays warm.
//
// Modes:
//
//   - batch (default): each operation is one POST /v1/verifiers/{id}/runs
//     with mode=batch (server-side simulated crowd; the report returns
//     inline). Latency samples are per-run wall times.
//   - session: each operation creates a mode=session run and answers every
//     question screen through the API using the same simulated-crowd logic
//     the server uses for batch runs (the loadgen knows the worlds' ground
//     truth because it generated them). Latency samples are per-answer
//     round trips — the figure an interactive checker experiences.
//
// With -baseline LOAD_x.json the run doubles as a regression gate,
// mirroring cmd/bench: the fresh claims/s must not fall below the baseline
// claims/s divided by -max-ratio, or the exit status is non-zero.
//
// Examples:
//
//	loadgen -duration 10s -corpora 2 -concurrency 8
//	scrutinizerd -addr :8080 -data-dir /tmp/d & loadgen -addr http://127.0.0.1:8080 -mode session
//	loadgen -baseline LOAD_2026-08-08.json -max-ratio 3
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/worldgen"
)

type config struct {
	addr        string
	mode        string
	corpora     int
	verifiers   int
	concurrency int
	duration    time.Duration
	claims      int
	sections    int
	team        int
	batch       int
	seed        int64
	out         string
	date        string
	baseline    string
	maxRatio    float64
	overload    bool
}

// loadReport is the LOAD_<date>.json document.
type loadReport struct {
	Date             string  `json:"date"`
	GoVersion        string  `json:"go_version"`
	GOOS             string  `json:"goos"`
	GOARCH           string  `json:"goarch"`
	CPU              string  `json:"cpu,omitempty"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	QueryCacheShards int     `json:"query_cache_shards"`
	Target           string  `json:"target"` // "inproc" or the daemon URL
	Mode             string  `json:"mode"`
	Corpora          int     `json:"corpora"`
	VerifiersPer     int     `json:"verifiers_per_corpus"`
	Concurrency      int     `json:"concurrency"`
	DurationS        float64 `json:"duration_s"`
	Runs             int     `json:"runs"`
	Claims           int     `json:"claims"`
	Questions        int     `json:"questions"`
	Errors           int     `json:"errors"`
	ClaimsPerS       float64 `json:"claims_per_s"`
	QuestionsPerS    float64 `json:"questions_per_s"`
	// LatencyKind says what the percentiles measure: "answer" round trips
	// (session mode) or whole-"run" wall times (batch mode).
	LatencyKind string  `json:"latency_kind"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	// Guard accounting, recorded in every mode: requests the daemon shed,
	// split by status code (429 rate/quota rejections vs 503 load
	// shedding), plus sessions deliberately walked away from mid-pump
	// (overload only). A shed request is the protection working, not an
	// error; Other5xx is what would indicate the daemon buckling.
	Overload  bool `json:"overload,omitempty"`
	Shed429   int  `json:"shed_429,omitempty"`
	Shed503   int  `json:"shed_503,omitempty"`
	Other5xx  int  `json:"other_5xx,omitempty"`
	Abandoned int  `json:"abandoned_sessions,omitempty"`
}

// tenant is one (corpus, verifier) pair under load, with the generated
// world it was trained from — the ground truth the simulated crowd answers
// with in session mode.
type tenant struct {
	corpusID   string
	verifierID string
	world      *worldgen.World
	docJSON    []byte
}

// opResult is what one closed-loop operation contributes.
type opResult struct {
	claims    int
	questions int
	latencies []float64 // milliseconds; per-answer (session) or per-run (batch)
	// Guard outcomes (every mode): shed counts rejections the daemon's
	// guards issued, split by status code, other5xx counts genuine server
	// failures, abandoned marks a session deliberately left un-deleted
	// mid-pump (overload mode only).
	shed429   int
	shed503   int
	other5xx  int
	abandoned int
}

// runner abstracts the two drive paths (HTTP daemon, in-process Service).
type runner interface {
	// setup registers every tenant's corpus and verifier with the target.
	setup(tenants []*tenant) error
	// oneOp executes one closed-loop operation for the tenant. worker is
	// the stable worker index (used to key per-worker crowd state).
	oneOp(worker int, t *tenant, mode string) (opResult, error)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "scrutinizerd base URL (e.g. http://127.0.0.1:8080); empty drives an in-process Service")
	flag.StringVar(&cfg.mode, "mode", "batch", "operation mode: batch or session")
	flag.IntVar(&cfg.corpora, "corpora", 2, "number of corpora (M)")
	flag.IntVar(&cfg.verifiers, "verifiers", 1, "verifiers per corpus (V)")
	flag.IntVar(&cfg.concurrency, "concurrency", 4, "concurrent closed-loop clients (C)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "load duration (workers finish their in-flight op after it)")
	flag.IntVar(&cfg.claims, "claims", 40, "claims per generated world")
	flag.IntVar(&cfg.sections, "sections", 5, "sections per generated world")
	flag.IntVar(&cfg.team, "team", 3, "crowd team size per operation")
	flag.IntVar(&cfg.batch, "batch", 100, "verification batch size")
	flag.Int64Var(&cfg.seed, "seed", 7, "base world seed (corpus i uses seed+i)")
	flag.StringVar(&cfg.out, "out", "", "output path (default LOAD_<date>.json)")
	flag.StringVar(&cfg.date, "date", time.Now().Format("2006-01-02"), "date stamp for the output file")
	flag.StringVar(&cfg.baseline, "baseline", "", "LOAD_*.json to gate against; exit non-zero when claims/s regresses")
	flag.Float64Var(&cfg.maxRatio, "max-ratio", 2.0, "fail when baseline claims/s exceeds fresh claims/s by this factor (with -baseline)")
	flag.BoolVar(&cfg.overload, "overload", false, "hostile mode: never back off on 429/503 (count them as shed), abandon half the sessions mid-pump without deleting them; fails unless the daemon stays live with no non-shed 5xx")
	flag.Parse()

	if cfg.mode != "batch" && cfg.mode != "session" {
		fmt.Fprintf(os.Stderr, "loadgen: unknown mode %q (batch or session)\n", cfg.mode)
		os.Exit(2)
	}
	if cfg.overload && cfg.addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -overload needs a live daemon (-addr); the guards under test live in scrutinizerd")
		os.Exit(2)
	}
	if cfg.out == "" {
		cfg.out = "LOAD_" + cfg.date + ".json"
	}

	tenants, err := buildTenants(cfg)
	if err != nil {
		fatal(err)
	}
	var r runner
	target := "inproc"
	if cfg.addr != "" {
		target = cfg.addr
		r = &httpRunner{base: strings.TrimRight(cfg.addr, "/"), cfg: cfg,
			client: &http.Client{Timeout: 5 * time.Minute}, crowds: newCrowdCache(cfg)}
	} else {
		ir, err := newInprocRunner(cfg)
		if err != nil {
			fatal(err)
		}
		r = ir
	}
	fmt.Fprintf(os.Stderr, "loadgen: setting up %d corpora x %d verifiers on %s\n",
		cfg.corpora, cfg.verifiers, target)
	if err := r.setup(tenants); err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "loadgen: %s mode, C=%d closed-loop clients for %s\n",
		cfg.mode, cfg.concurrency, cfg.duration)
	rep := drive(cfg, r, tenants)
	rep.Target = target
	rep.CPU = cpuModel()

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(cfg.out, raw, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d runs, %.0f claims/s, %.0f questions/s, p50/p95/p99 = %.1f/%.1f/%.1f ms (%s) -> %s\n",
		rep.Runs, rep.ClaimsPerS, rep.QuestionsPerS, rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.LatencyKind, cfg.out)
	if rep.Shed429+rep.Shed503 > 0 && !cfg.overload {
		// Guards fired during a non-hostile run: report the split so a
		// throttled result is never mistaken for a clean throughput number.
		fmt.Fprintf(os.Stderr, "loadgen: rejected by guards: %d rate/quota (429), %d load-shed (503)\n",
			rep.Shed429, rep.Shed503)
	}

	if cfg.overload {
		// Overload pass criteria: the daemon survived (liveness green), it
		// actually shed something (the limits were exercised), and nothing
		// failed with a non-shed 5xx — a 500 storm under load is a bug the
		// protection layer exists to prevent.
		fmt.Fprintf(os.Stderr, "loadgen: overload: %d shed as 429, %d shed as 503, %d abandoned sessions, %d other 5xx\n",
			rep.Shed429, rep.Shed503, rep.Abandoned, rep.Other5xx)
		if rep.Other5xx > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d non-shed 5xx responses under overload\n", rep.Other5xx)
			os.Exit(1)
		}
		if rep.Shed429+rep.Shed503 == 0 {
			fmt.Fprintln(os.Stderr, "loadgen: FAIL: overload run shed nothing (limits not exercised; raise -concurrency or lower the daemon's quotas)")
			os.Exit(1)
		}
		if err := checkAlive(cfg.addr); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: FAIL: daemon liveness after overload: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "loadgen: overload gate passed (daemon live, shedding clean)")
		return
	}
	if rep.Runs == 0 || rep.Claims == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: FAIL: no operations completed")
		os.Exit(1)
	}
	if cfg.baseline != "" {
		if err := gate(cfg, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "loadgen: baseline gate passed")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
	os.Exit(1)
}

// checkAlive asserts the daemon's liveness probe still answers 200 — the
// post-overload invariant: shedding protected the process, not killed it.
func checkAlive(addr string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(strings.TrimRight(addr, "/") + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz returned %d", resp.StatusCode)
	}
	return nil
}

// buildTenants generates the worlds and serializes each training document
// once (the HTTP driver re-sends it per run).
func buildTenants(cfg config) ([]*tenant, error) {
	var tenants []*tenant
	for m := 0; m < cfg.corpora; m++ {
		wcfg := worldgen.SmallScale()
		wcfg.NumClaims = cfg.claims
		wcfg.NumSections = cfg.sections
		wcfg.Seed = cfg.seed + int64(m)
		w, err := worldgen.Generate(wcfg)
		if err != nil {
			return nil, fmt.Errorf("generating world %d: %w", m, err)
		}
		var doc bytes.Buffer
		if err := w.Document.WriteJSON(&doc); err != nil {
			return nil, err
		}
		for v := 0; v < cfg.verifiers; v++ {
			tenants = append(tenants, &tenant{
				// Seed-qualified so reruns against a durable daemon with a
				// different -seed never bind to a stale corpus.
				corpusID:   fmt.Sprintf("load-s%d-c%d", cfg.seed, m),
				verifierID: "", // assigned during setup
				world:      w,
				docJSON:    doc.Bytes(),
			})
		}
	}
	return tenants, nil
}

// drive runs the closed loop and aggregates the report.
func drive(cfg config, r runner, tenants []*tenant) loadReport {
	type workerTotals struct {
		res  opResult
		runs int
		errs int
	}
	totals := make([]workerTotals, cfg.concurrency)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tt := &totals[w]
			for op := 0; time.Now().Before(deadline); op++ {
				t := tenants[(w+op)%len(tenants)]
				res, err := r.oneOp(w, t, cfg.mode)
				tt.res.shed429 += res.shed429
				tt.res.shed503 += res.shed503
				tt.res.other5xx += res.other5xx
				tt.res.abandoned += res.abandoned
				if err != nil {
					tt.errs++
					// Under deliberate overload a wall of shed errors is the
					// expected outcome, not news worth a line each.
					if !cfg.overload {
						fmt.Fprintf(os.Stderr, "loadgen: worker %d: %v\n", w, err)
					}
					continue
				}
				if res.shed429+res.shed503 > 0 && res.claims == 0 && res.questions == 0 {
					// The whole operation was shed at admission: not a run,
					// not an error — the guard doing its job.
					continue
				}
				tt.runs++
				tt.res.claims += res.claims
				tt.res.questions += res.questions
				tt.res.latencies = append(tt.res.latencies, res.latencies...)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := loadReport{
		Date:             cfg.date,
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		QueryCacheShards: core.QueryCacheShards,
		Mode:             cfg.mode,
		Corpora:          cfg.corpora,
		VerifiersPer:     cfg.verifiers,
		Concurrency:      cfg.concurrency,
		DurationS:        elapsed,
		LatencyKind:      "run",
		Overload:         cfg.overload,
	}
	if cfg.mode == "session" {
		rep.LatencyKind = "answer"
	}
	var lats []float64
	for i := range totals {
		rep.Runs += totals[i].runs
		rep.Claims += totals[i].res.claims
		rep.Questions += totals[i].res.questions
		rep.Errors += totals[i].errs
		rep.Shed429 += totals[i].res.shed429
		rep.Shed503 += totals[i].res.shed503
		rep.Other5xx += totals[i].res.other5xx
		rep.Abandoned += totals[i].res.abandoned
		lats = append(lats, totals[i].res.latencies...)
	}
	if elapsed > 0 {
		rep.ClaimsPerS = float64(rep.Claims) / elapsed
		rep.QuestionsPerS = float64(rep.Questions) / elapsed
	}
	sort.Float64s(lats)
	rep.P50Ms = percentile(lats, 0.50)
	rep.P95Ms = percentile(lats, 0.95)
	rep.P99Ms = percentile(lats, 0.99)
	return rep
}

// percentile reads the p-quantile (0 <= p <= 1) from sorted samples by
// nearest rank: the ceil(p·n)-th smallest, as stats.Percentile does.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	p = min(max(p, 0), 1)
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// gate compares fresh claims/s against a baseline LOAD_*.json, mirroring
// cmd/bench's ratio gate: regressions beyond max-ratio fail, improvements
// always pass.
func gate(cfg config, fresh *loadReport) error {
	raw, err := os.ReadFile(cfg.baseline)
	if err != nil {
		return err
	}
	var base loadReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", cfg.baseline, err)
	}
	if base.ClaimsPerS <= 0 {
		return fmt.Errorf("baseline %s has no claims/s", cfg.baseline)
	}
	if fresh.ClaimsPerS*cfg.maxRatio < base.ClaimsPerS {
		return fmt.Errorf("claims/s regressed: %.0f -> %.0f (more than %.2fx below baseline %s)",
			base.ClaimsPerS, fresh.ClaimsPerS, cfg.maxRatio, cfg.baseline)
	}
	return nil
}

// cpuModel reads the processor model for the report metadata (best effort;
// Linux only).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// localCrowd answers session question screens from a world's ground truth,
// exactly like the in-process simulated crowd: per-claim team views,
// truth labels from the document, truth SQL from the engine of a cold run
// over the same corpus. One localCrowd per (worker, tenant) —
// teams carry mutable RNG state and must not be shared across goroutines.
type localCrowd struct {
	engine  *core.Engine
	team    *scrutinizer.Team
	byID    map[int]*scrutinizer.Claim
	oracles map[int]core.Oracle
}

func newLocalCrowd(w *worldgen.World, seed int64, teamSize int) (*localCrowd, error) {
	v, err := scrutinizer.NewVerifier(w.Corpus, w.Document.Unannotated(), scrutinizer.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	run, err := v.StartRun(context.Background(), w.Document)
	if err != nil {
		return nil, err
	}
	team, err := v.NewTeam(teamSize)
	if err != nil {
		return nil, err
	}
	lc := &localCrowd{
		engine:  run.Engine(),
		team:    team,
		byID:    make(map[int]*scrutinizer.Claim, len(w.Document.Claims)),
		oracles: make(map[int]core.Oracle),
	}
	for _, c := range w.Document.Claims {
		lc.byID[c.ID] = c
	}
	return lc, nil
}

func (lc *localCrowd) answer(q scrutinizer.SessionQuestion) (scrutinizer.SessionAnswer, error) {
	oracle := lc.oracles[q.ClaimID]
	if oracle == nil {
		var err error
		oracle, err = lc.engine.NewTeamOracle(lc.team.ForClaim(q.ClaimID))
		if err != nil {
			return scrutinizer.SessionAnswer{}, err
		}
		lc.oracles[q.ClaimID] = oracle
	}
	claim := lc.byID[q.ClaimID]
	if claim == nil {
		return scrutinizer.SessionAnswer{}, fmt.Errorf("question for unknown claim %d", q.ClaimID)
	}
	var value string
	var secs float64
	if q.Screen == "final" {
		value, secs = oracle.AnswerFinal(claim, q.Candidates)
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
			return scrutinizer.SessionAnswer{}, fmt.Errorf("unknown screen %q", q.Screen)
		}
		opts := make([]planner.Option, len(q.Options))
		for i, o := range q.Options {
			opts[i] = planner.Option{Value: o.Value, Prob: o.Prob}
		}
		value, secs = oracle.AnswerProperty(claim, kind, opts)
	}
	return scrutinizer.SessionAnswer{QuestionID: q.ID, ClaimID: q.ClaimID, Value: value, Seconds: secs}, nil
}

// crowdCache hands each (worker, tenant) pair its own localCrowd, built
// lazily — workers own their entry, so no lock is needed beyond the map's.
type crowdCache struct {
	mu     sync.Mutex
	cfg    config
	crowds map[string]*localCrowd
}

func newCrowdCache(cfg config) *crowdCache {
	return &crowdCache{cfg: cfg, crowds: make(map[string]*localCrowd)}
}

func (cc *crowdCache) forWorker(worker int, t *tenant) (*localCrowd, error) {
	key := fmt.Sprintf("%d/%s/%s", worker, t.corpusID, t.verifierID)
	cc.mu.Lock()
	lc := cc.crowds[key]
	cc.mu.Unlock()
	if lc != nil {
		return lc, nil
	}
	lc, err := newLocalCrowd(t.world, cc.cfg.seed+int64(worker), cc.cfg.team)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	cc.crowds[key] = lc
	cc.mu.Unlock()
	return lc, nil
}
