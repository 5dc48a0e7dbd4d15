// Benchmarks that regenerate every table and figure of the paper's §6 on
// scaled-down worlds (so `go test -bench=.` completes in minutes), plus
// ablation benches for the design choices called out in DESIGN.md §2.
// Headline metrics are attached via b.ReportMetric; cmd/experiments prints
// the full rows at small or paper scale.
package scrutinizer

import (
	"context"
	"runtime"
	"testing"

	"github.com/repro/scrutinizer/internal/aggcheck"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/sim"
	"github.com/repro/scrutinizer/internal/stats"
	"github.com/repro/scrutinizer/internal/worldgen"
)

func benchWorldCfg() worldgen.Config {
	cfg := worldgen.SmallScale()
	cfg.NumClaims = 120
	cfg.NumSections = 10
	return cfg
}

func benchSimCfg() sim.SimulationConfig {
	return sim.SimulationConfig{
		World:           benchWorldCfg(),
		TeamSize:        3,
		BatchSize:       20,
		SectionReadCost: 60,
		BaseRead:        10,
		WorkerAccuracy:  0.98,
		Seed:            4,
		EvalSampleEvery: 4,
	}
}

// BenchmarkTable1PropertyFrequencies regenerates the Table 1 percentiles of
// property value frequencies over the annotation candidate lists.
func BenchmarkTable1PropertyFrequencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := worldgen.Generate(benchWorldCfg())
		if err != nil {
			b.Fatal(err)
		}
		counts := map[string]int{}
		for _, cand := range w.Candidates {
			for _, r := range cand.Relations {
				counts[r]++
			}
		}
		freqs := make([]float64, 0, len(counts))
		for _, n := range counts {
			freqs = append(freqs, float64(n))
		}
		b.ReportMetric(stats.Percentile(freqs, 50), "relfreq-p50")
		b.ReportMetric(stats.Percentile(freqs, 99), "relfreq-p99")
	}
}

// BenchmarkTable2Simulation regenerates the Table 2 summary: weeks for
// Manual / Sequential / Scrutinizer and the savings ratios.
func BenchmarkTable2Simulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSimulation(benchSimCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Systems {
			switch s.System {
			case sim.SystemManual:
				b.ReportMetric(s.Weeks, "manual-weeks")
			case sim.SystemSequential:
				b.ReportMetric(s.Savings*100, "seq-savings-%")
			case sim.SystemScrutinizer:
				b.ReportMetric(s.Savings*100, "scr-savings-%")
			}
		}
	}
}

// BenchmarkFig5UserStudy regenerates the user-study bars: claims verified
// per 20 minutes, manual vs system.
func BenchmarkFig5UserStudy(b *testing.B) {
	cfg := sim.DefaultStudyConfig()
	cfg.World.NumClaims = 200
	cfg.World.NumFormulas = 20
	cfg.NumClaims = 23
	for i := 0; i < b.N; i++ {
		res, err := sim.RunUserStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ManualAvg, "manual-claims/20min")
		b.ReportMetric(res.SystemAvg, "system-claims/20min")
		b.ReportMetric(res.MajorityAccuracy*100, "majority-acc-%")
	}
}

// BenchmarkFig6Complexity regenerates the verification-time-vs-complexity
// curve and reports the average manual/system ratio.
func BenchmarkFig6Complexity(b *testing.B) {
	cfg := sim.DefaultStudyConfig()
	cfg.World.NumClaims = 200
	cfg.World.NumFormulas = 20
	cfg.NumClaims = 23
	for i := 0; i < b.N; i++ {
		res, err := sim.RunUserStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		n := 0
		for _, p := range res.Complexity {
			if p.ManualCount > 0 && p.SystemCount > 0 && p.SystemMean > 0 {
				ratio += p.ManualMean / p.SystemMean
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(ratio/float64(n), "manual/system-time-ratio")
		}
	}
}

// BenchmarkFig7Accumulated regenerates the accumulated-time series and
// reports the final gap between Sequential and Scrutinizer.
func BenchmarkFig7Accumulated(b *testing.B) {
	cfg := benchSimCfg()
	cfg.Systems = []sim.System{sim.SystemSequential, sim.SystemScrutinizer}
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var seqW, scrW float64
		for _, s := range res.Systems {
			if s.System == sim.SystemSequential {
				seqW = s.Weeks
			} else {
				scrW = s.Weeks
			}
		}
		b.ReportMetric(seqW, "sequential-weeks")
		b.ReportMetric(scrW, "scrutinizer-weeks")
	}
}

// BenchmarkFig8AccuracyEvolution regenerates the accuracy-evolution series
// and reports mid-run average accuracy for both systems.
func BenchmarkFig8AccuracyEvolution(b *testing.B) {
	cfg := benchSimCfg()
	cfg.Systems = []sim.System{sim.SystemSequential, sim.SystemScrutinizer}
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Systems {
			name := "seq-avg-acc"
			if s.System == sim.SystemScrutinizer {
				name = "scr-avg-acc"
			}
			b.ReportMetric(s.AvgAccuracy, name)
		}
	}
}

// BenchmarkFig9PerClassifier regenerates per-classifier accuracy evolution
// and reports each model's final accuracy.
func BenchmarkFig9PerClassifier(b *testing.B) {
	cfg := benchSimCfg()
	cfg.Systems = []sim.System{sim.SystemScrutinizer}
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		series := res.Systems[0].Series
		if len(series) == 0 {
			b.Fatal("empty series")
		}
		last := series[len(series)-1]
		names := []string{"relation-acc", "rowkey-acc", "attr-acc", "formula-acc"}
		for k, n := range names {
			b.ReportMetric(last.PerClassifier[k], n)
		}
	}
}

// BenchmarkFig10TopK regenerates the top-k accuracy curve and reports the
// k=1 and k=10 averages.
func BenchmarkFig10TopK(b *testing.B) {
	cfg := benchSimCfg()
	cfg.Systems = []sim.System{sim.SystemScrutinizer}
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.TopK {
			if p.K == 1 {
				b.ReportMetric(p.Average, "top1-acc")
			}
			if p.K == 10 {
				b.ReportMetric(p.Average, "top10-acc")
			}
		}
	}
}

// BenchmarkTable3BaselineCoverage quantifies the Table 3 comparison: the
// AggChecker-style baseline's claim coverage and accuracy on the same
// document Scrutinizer verifies fully.
func BenchmarkTable3BaselineCoverage(b *testing.B) {
	w, err := worldgen.Generate(benchWorldCfg())
	if err != nil {
		b.Fatal(err)
	}
	checker, err := aggcheck.New(w.Corpus, aggcheck.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov := checker.CheckDocument(w.Document)
		b.ReportMetric(float64(cov.Unsupported)/float64(cov.Total)*100, "unsupported-%")
		b.ReportMetric(cov.Accuracy()*100, "attempted-acc-%")
	}
}

// --- Parallel verification pipeline ---------------------------------------

// benchVerify runs one full assisted document verification through the
// facade at the given fan-out: a cold-start run (verifier fitted on the
// unannotated document), timing only the Verify loop (world generation,
// feature fitting and run start are untimed setup). The reported
// claims/s metric is the serving-throughput headline; verdicts are
// identical at every parallelism, so sequential vs parallel is a pure
// wall-clock comparison.
func benchVerify(b *testing.B, cfg worldgen.Config, parallelism int) {
	w, err := worldgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run, team := startRun(b, w.Corpus, w.Document.Unannotated(), w.Document, Options{Seed: 11})
		b.StartTimer()
		res, err := run.Verify(context.Background(), team, VerifyOptions{
			BatchSize:   100,
			Parallelism: parallelism,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outcomes) != len(w.Document.Claims) {
			b.Fatalf("verified %d of %d claims", len(res.Outcomes), len(w.Document.Claims))
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(w.Document.Claims))/b.Elapsed().Seconds(), "claims/s")
}

func paperBenchCfg() worldgen.Config {
	// PaperScale claim count (1539) over the small corpus: the benchmark
	// measures the verification loop, not corpus generation.
	cfg := worldgen.SmallScale()
	cfg.NumClaims = worldgen.PaperScale().NumClaims
	cfg.NumSections = 40
	return cfg
}

// BenchmarkVerifySequential is the baseline: one claim at a time, exactly
// the paper's Algorithm 1.
func BenchmarkVerifySequential(b *testing.B) {
	b.Run("SmallWorld", func(b *testing.B) { benchVerify(b, benchWorldCfg(), 1) })
	b.Run("PaperWorld", func(b *testing.B) { benchVerify(b, paperBenchCfg(), 1) })
}

// BenchmarkVerifyParallel fans each batch out across all CPUs; the
// acceptance bar is ≥2x over BenchmarkVerifySequential on a 4-core runner
// at PaperWorld scale.
func BenchmarkVerifyParallel(b *testing.B) {
	b.Run("SmallWorld", func(b *testing.B) { benchVerify(b, benchWorldCfg(), runtime.NumCPU()) })
	b.Run("PaperWorld", func(b *testing.B) { benchVerify(b, paperBenchCfg(), runtime.NumCPU()) })
}

// --- Ablations (DESIGN.md §2) ---------------------------------------------

// verifyWeeks runs a full assisted verification under a given ordering and
// returns team-weeks.
func verifyWeeks(b *testing.B, ordering core.Ordering, seed int64) float64 {
	w, err := worldgen.Generate(benchWorldCfg())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := sim.BuildEngine(w, sim.SimCostModel(), seed)
	if err != nil {
		b.Fatal(err)
	}
	team, err := crowd.NewTeam("B", 3, 0.98, seed)
	if err != nil {
		b.Fatal(err)
	}
	res, err := engine.Verify(context.Background(), w.Document, team, core.VerifyConfig{
		BatchSize:       20,
		SectionReadCost: 60,
		Ordering:        ordering,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Seconds / sim.SecondsPerWeek(3)
}

// BenchmarkAblationOrdering compares ILP claim ordering against the
// sequential and greedy alternatives.
func BenchmarkAblationOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(verifyWeeks(b, core.OrderILP, 3), "ilp-weeks")
		b.ReportMetric(verifyWeeks(b, core.OrderGreedy, 3), "greedy-weeks")
		b.ReportMetric(verifyWeeks(b, core.OrderSequential, 3), "sequential-weeks")
	}
}

// BenchmarkAblationPropertySelection compares greedy submodular property
// selection against taking properties in fixed order.
func BenchmarkAblationPropertySelection(b *testing.B) {
	props := []planner.Property{
		{Name: "relation", Options: opts(2)},
		{Name: "key", Options: opts(8)},
		{Name: "attribute", Options: opts(5)},
		{Name: "formula", Options: opts(3)},
	}
	cs := planner.NewCandidateSpace(props)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedy := cs.PruningPower(cs.GreedySelect(2))
		fixed := cs.PruningPower([]int{0, 1})
		b.ReportMetric(greedy, "greedy-pruning")
		b.ReportMetric(fixed, "fixed-pruning")
	}
}

// BenchmarkAblationOptionOrder compares probability-sorted answer options
// (Corollary 2) against the unsorted ordering.
func BenchmarkAblationOptionOrder(b *testing.B) {
	options := []planner.Option{
		{Value: "e", Prob: 0.05}, {Value: "d", Prob: 0.10},
		{Value: "c", Prob: 0.15}, {Value: "b", Prob: 0.25},
		{Value: "a", Prob: 0.45},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sorted := planner.ExpectedVerificationCost(planner.SortOptions(options), 1)
		unsorted := planner.ExpectedVerificationCost(options, 1)
		b.ReportMetric(sorted, "sorted-cost")
		b.ReportMetric(unsorted, "unsorted-cost")
	}
}

// BenchmarkAblationScreenBudget compares the Corollary 1 screen/option
// budgets against naive settings through the Theorem 1 overhead bound.
func BenchmarkAblationScreenBudget(b *testing.B) {
	cm := planner.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(cm.OverheadBound(cm.NumOptions(), cm.NumScreens()), "corollary1-bound")
		b.ReportMetric(cm.OverheadBound(50, 50), "naive50-bound")
	}
}

// BenchmarkAblationTentativeExecution measures Algorithm 2's
// value-match pruning: how many of the enumerated assignments the
// tentative-execution filter discards for explicit claims.
func BenchmarkAblationTentativeExecution(b *testing.B) {
	w, err := worldgen.Generate(benchWorldCfg())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := sim.BuildEngine(w, sim.SimCostModel(), 5)
	if err != nil {
		b.Fatal(err)
	}
	if err := engine.Train(w.Document.Claims); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var kept, total float64
		for _, c := range w.Document.Claims[:40] {
			truth := c.Truth
			ctx := core.Context{Relations: truth.Relations, Keys: truth.Keys, Attrs: truth.Attrs}
			var formulas []*formula.Formula
			for _, key := range engine.Library().TopK(5) {
				if f, ok := engine.Library().Get(key); ok {
					formulas = append(formulas, f)
				}
			}
			sols, alts, _ := engine.GenerateQueries(context.Background(), ctx, formulas, c.Param, c.HasParam)
			kept += float64(len(sols))
			total += float64(len(sols) + len(alts))
		}
		if total > 0 {
			b.ReportMetric(kept/total, "solution-fraction")
		}
	}
}

// --- small helpers ----------------------------------------------------------

func opts(n int) []planner.Option {
	out := make([]planner.Option, n)
	for i := range out {
		out[i] = planner.Option{Value: string(rune('a' + i)), Prob: 1 / float64(n)}
	}
	return out
}
