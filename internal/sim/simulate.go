package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// System names the three compared approaches of §6.2.
type System int

const (
	SystemManual System = iota
	SystemSequential
	SystemScrutinizer
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case SystemManual:
		return "Manual"
	case SystemSequential:
		return "Sequential"
	case SystemScrutinizer:
		return "Scrutinizer"
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// SimulationConfig parameterises the §6.2 report-scale simulation.
type SimulationConfig struct {
	// World generates corpus + document (defaults to PaperScale).
	World worldgen.Config
	// TeamSize is the number of fact checkers (paper: 3).
	TeamSize int
	// BatchSize is the retraining granularity (paper: 100).
	BatchSize int
	// SectionReadCost is r(s) in seconds per section skim.
	SectionReadCost float64
	// BaseRead is per-claim reading overhead in seconds per checker.
	BaseRead float64
	// WorkerAccuracy is per-option judgement accuracy.
	WorkerAccuracy float64
	// Seed drives worker jitter.
	Seed int64
	// EvalSampleEvery selects every n-th claim into the held-out
	// accuracy probe (Figures 8 and 9).
	EvalSampleEvery int
	// Systems restricts which systems run (empty = all three).
	Systems []System
	// Parallelism fans batch verification out across goroutines (see
	// core.VerifyConfig.Parallelism); simulated results are identical at
	// any setting, only wall-clock changes. <= 0 uses all CPUs, 1 forces
	// a sequential pass, matching the facade's VerifyOptions semantics.
	Parallelism int
}

// DefaultSimulationConfig mirrors §6.2 at paper scale. Tests use smaller
// worlds.
func DefaultSimulationConfig() SimulationConfig {
	return SimulationConfig{
		World:           worldgen.PaperScale(),
		TeamSize:        3,
		BatchSize:       100,
		SectionReadCost: 120,
		BaseRead:        20,
		WorkerAccuracy:  0.97,
		Seed:            99,
		EvalSampleEvery: 5,
	}
}

func (c SimulationConfig) withDefaults() SimulationConfig {
	d := DefaultSimulationConfig()
	if c.TeamSize <= 0 {
		c.TeamSize = d.TeamSize
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.SectionReadCost < 0 {
		c.SectionReadCost = d.SectionReadCost
	}
	if c.BaseRead < 0 {
		c.BaseRead = d.BaseRead
	}
	if c.WorkerAccuracy <= 0 || c.WorkerAccuracy > 1 {
		c.WorkerAccuracy = d.WorkerAccuracy
	}
	if c.EvalSampleEvery <= 0 {
		c.EvalSampleEvery = d.EvalSampleEvery
	}
	if c.Parallelism <= 0 {
		c.Parallelism = core.DefaultParallelism()
	}
	return c
}

// Sample is one point of the Figure 7/8 time series.
type Sample struct {
	VerifiedClaims int
	// Weeks is accumulated verification time in team-weeks.
	Weeks float64
	// AvgAccuracy is the mean top-1 accuracy of the four classifiers on
	// the held-out probe.
	AvgAccuracy float64
	// PerClassifier is top-1 accuracy per property (Figure 9), indexed
	// by core.PropertyKind.
	PerClassifier [4]float64
}

// SystemResult is one system's simulation outcome.
type SystemResult struct {
	System System
	// Weeks is the Table 2 total time.
	Weeks float64
	// Savings versus the Manual baseline (filled by RunSimulation).
	Savings float64
	// AvgAccuracy and MaxAccuracy summarise classifier accuracy over the
	// verification period (Table 2 rows 3-4); zero for Manual.
	AvgAccuracy, MaxAccuracy float64
	// ComputeMinutes is the wall-clock spent on planning, scheduling and
	// retraining (Table 2 row 5).
	ComputeMinutes float64
	// Series samples the run per batch (Figures 7 and 8).
	Series []Sample
	// ResultAccuracy is the verdict accuracy versus injected errors.
	ResultAccuracy float64
}

// TopKPoint is one point of Figure 10.
type TopKPoint struct {
	K       int
	Average float64
	PerKind [4]float64
}

// SimulationResult aggregates everything §6.2 reports.
type SimulationResult struct {
	Systems []SystemResult
	// TopK is the Figure 10 curve, measured on the Scrutinizer-trained
	// classifiers with a held-out split.
	TopK []TopKPoint
	// Claims is the document size.
	Claims int
}

// SecondsPerWeek converts person-seconds to team-weeks: the team works in
// parallel, eight hours a day, five days a week.
func SecondsPerWeek(teamSize int) float64 {
	return float64(teamSize) * 8 * 3600 * 5
}

// RunSimulation executes the §6.2 comparison. Systems run in a fixed order
// with fresh engines (cold start each).
func RunSimulation(cfg SimulationConfig) (*SimulationResult, error) {
	cfg = cfg.withDefaults()
	w, err := worldgen.Generate(cfg.World)
	if err != nil {
		return nil, err
	}
	systems := cfg.Systems
	if len(systems) == 0 {
		systems = []System{SystemManual, SystemSequential, SystemScrutinizer}
	}
	res := &SimulationResult{Claims: len(w.Document.Claims)}

	var manualWeeks float64
	for _, sys := range systems {
		var sr SystemResult
		var engine *core.Engine
		switch sys {
		case SystemManual:
			sr, err = runManual(w, cfg)
		default:
			sr, engine, err = runAssisted(w, cfg, sys)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: running %s: %w", sys, err)
		}
		if sys == SystemManual {
			manualWeeks = sr.Weeks
		}
		res.Systems = append(res.Systems, sr)

		// Figure 10 uses the fully trained Scrutinizer classifiers.
		if sys == SystemScrutinizer && engine != nil {
			res.TopK = topKCurve(engine, w, cfg)
		}
	}
	// Savings relative to Manual.
	for i := range res.Systems {
		if manualWeeks > 0 && res.Systems[i].System != SystemManual {
			res.Systems[i].Savings = 1 - res.Systems[i].Weeks/manualWeeks
		}
	}
	return res, nil
}

// runManual plays the Manual baseline: every claim is verified from scratch
// by every checker.
func runManual(w *worldgen.World, cfg SimulationConfig) (SystemResult, error) {
	team, err := crowd.NewTeam("M", cfg.TeamSize, cfg.WorkerAccuracy, cfg.Seed)
	if err != nil {
		return SystemResult{}, err
	}
	cost := SimCostModel()
	sr := SystemResult{System: SystemManual}
	var seconds float64
	var samples []Sample
	// The manual process also reads each section once per checker.
	seconds += float64(float64(w.Document.Sections) * cfg.SectionReadCost * float64(cfg.TeamSize))
	for i, c := range w.Document.Claims {
		// Each claim is checked by all checkers (the IEA process).
		truthSQL := c.Truth.Formula // opaque token; manual cost is constant
		for _, worker := range team.Workers {
			ans := worker.ManualVerify(truthSQL, cost)
			seconds += ans.Seconds + float64(cfg.BaseRead*worker.Speed)
		}
		if (i+1)%cfg.BatchSize == 0 || i == len(w.Document.Claims)-1 {
			samples = append(samples, Sample{
				VerifiedClaims: i + 1,
				Weeks:          seconds / SecondsPerWeek(cfg.TeamSize),
			})
		}
	}
	sr.Weeks = seconds / SecondsPerWeek(cfg.TeamSize)
	sr.Series = samples
	sr.ResultAccuracy = 1 // accurate manual checkers conclude correctly
	return sr, nil
}

// runAssisted plays Sequential or Scrutinizer through core.Verify.
func runAssisted(w *worldgen.World, cfg SimulationConfig, sys System) (SystemResult, *core.Engine, error) {
	engine, err := BuildEngine(w, SimCostModel(), cfg.Seed)
	if err != nil {
		return SystemResult{}, nil, err
	}
	team, err := crowd.NewTeam("S", cfg.TeamSize, cfg.WorkerAccuracy, cfg.Seed+int64(sys))
	if err != nil {
		return SystemResult{}, nil, err
	}

	probe := evalProbe(w, cfg.EvalSampleEvery)
	ordering := core.OrderILP
	if sys == SystemSequential {
		ordering = core.OrderSequential
	}

	sr := SystemResult{System: sys}
	var series []Sample
	var crowdSeconds float64
	start := time.Now() // wall clock ≈ computation (crowd time is simulated)

	// The Definition 9 variant objective (w_u·u(c) − t(B)) reproduces the
	// paper's dynamic: while classifiers are uncertain every claim is
	// expensive and utility differentiates; once they are confident the
	// cost term dominates and cheap claims are preferred, postponing
	// difficult ones to the end (§6.2's discussion of Figure 8). The
	// weight is a fixed setting, not a measured optimum; DESIGN.md §2
	// compares the orderings.
	utilityWeight := 5.0
	if sys == SystemSequential {
		utilityWeight = 0
	}
	res, err := engine.Verify(context.Background(), w.Document, team, core.VerifyConfig{
		BatchSize:       cfg.BatchSize,
		SectionReadCost: cfg.SectionReadCost,
		Ordering:        ordering,
		UtilityWeight:   utilityWeight,
		Parallelism:     cfg.Parallelism,
		AfterBatch: func(batch, verified int, outs []*core.Outcome) {
			var batchSecs float64
			for _, o := range outs {
				batchSecs += o.Seconds + float64(cfg.BaseRead*float64(cfg.TeamSize))
			}
			crowdSeconds += batchSecs
			s := Sample{
				VerifiedClaims: verified,
				Weeks:          0, // filled below from the running total
			}
			s.Weeks = (crowdSeconds + sectionSecondsSoFar(batch, w, cfg)) / SecondsPerWeek(cfg.TeamSize)
			s.AvgAccuracy, s.PerClassifier = probeAccuracy(engine, probe)
			series = append(series, s)
		},
	})
	if err != nil {
		return SystemResult{}, nil, err
	}
	wall := time.Since(start)

	// Total crowd time: outcome seconds + per-claim reading + section
	// skims accounted by core (res.Seconds includes screens and skims).
	total := res.Seconds + float64(cfg.BaseRead*float64(cfg.TeamSize)*float64(len(res.Outcomes)))
	sr.Weeks = total / SecondsPerWeek(cfg.TeamSize)
	sr.Series = series
	sr.ComputeMinutes = wall.Minutes()
	sr.ResultAccuracy = core.Accuracy(w.Document, res.Outcomes)

	// Accuracy summary over the period.
	var sum, maxA float64
	for _, s := range series {
		sum += s.AvgAccuracy
		if s.AvgAccuracy > maxA {
			maxA = s.AvgAccuracy
		}
	}
	if len(series) > 0 {
		sr.AvgAccuracy = sum / float64(len(series))
	}
	sr.MaxAccuracy = maxA
	return sr, engine, nil
}

// sectionSecondsSoFar approximates accumulated skim time for the series; the
// exact total is in res.Seconds, this keeps the per-batch curve monotone.
func sectionSecondsSoFar(batches int, w *worldgen.World, cfg SimulationConfig) float64 {
	perBatch := float64(w.Document.Sections) / max(1, float64(len(w.Document.Claims))/float64(cfg.BatchSize))
	return float64(float64(batches) * perBatch * cfg.SectionReadCost * float64(cfg.TeamSize))
}

// evalProbe selects the held-out accuracy sample.
func evalProbe(w *worldgen.World, every int) []*claims.Claim {
	var probe []*claims.Claim
	for i, c := range w.Document.Claims {
		if i%every == 0 {
			probe = append(probe, c)
		}
	}
	return probe
}

// probeAccuracy measures top-1 accuracy of the four classifiers on the
// probe using ground-truth labels.
func probeAccuracy(engine *core.Engine, probe []*claims.Claim) (avg float64, per [4]float64) {
	for ki, kind := range core.PropertyKinds() {
		var ex []classifier.Example
		for _, c := range probe {
			label := core.TruthLabel(c.Truth, kind)
			if label == "" {
				continue
			}
			ex = append(ex, classifier.Example{Features: engine.Featurize(c), Label: label})
		}
		per[ki] = engine.Model(kind).Accuracy(ex)
		avg += per[ki]
	}
	avg /= 4
	return avg, per
}

// topKCurve computes Figure 10 on a held-out split: the engine is retrained
// on 80% of the document and evaluated on the remaining 20%.
func topKCurve(engine *core.Engine, w *worldgen.World, cfg SimulationConfig) []TopKPoint {
	var train, test []*claims.Claim
	for i, c := range w.Document.Claims {
		if i%5 == 4 {
			test = append(test, c)
		} else {
			train = append(train, c)
		}
	}
	if err := engine.Train(train); err != nil {
		return nil
	}
	var points []TopKPoint
	for _, k := range []int{1, 3, 5, 10, 15} {
		p := TopKPoint{K: k}
		for ki, kind := range core.PropertyKinds() {
			var ex []classifier.Example
			for _, c := range test {
				label := core.TruthLabel(c.Truth, kind)
				if label == "" {
					continue
				}
				ex = append(ex, classifier.Example{Features: engine.Featurize(c), Label: label})
			}
			p.PerKind[ki] = engine.Model(kind).TopKAccuracy(ex, k)
			p.Average += p.PerKind[ki]
		}
		p.Average /= 4
		points = append(points, p)
	}
	return points
}
