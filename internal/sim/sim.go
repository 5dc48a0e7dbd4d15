package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/embed"
	"github.com/repro/scrutinizer/internal/feature"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// StudyCostModel calibrates the §5.1 constants to the user study: manual
// verification of the (deliberately simple) study claims took on the order
// of two minutes, so s_f = 120s; the remaining constants keep the paper's
// orderings v_p << v_f and s_p << s_f.
func StudyCostModel() planner.CostModel {
	return planner.CostModel{
		VerifyProperty:  2.5,
		VerifyFull:      20,
		SuggestProperty: 13,
		SuggestFull:     120,
	}
}

// SimCostModel calibrates to the report-scale simulation, where claims are
// harder on average: the Manual baseline of Table 2 (4.1 weeks for 1539
// claims and three checkers) implies roughly 380s per claim per checker.
func SimCostModel() planner.CostModel {
	return planner.CostModel{
		VerifyProperty:  4,
		VerifyFull:      39, // nop = sf/vf ≈ 10 options per property, as in §6.2
		SuggestProperty: 35, // nsc = sf/(vp+sp) = 10
		SuggestFull:     390,
	}
}

// BuildEngine fits the feature pipeline on a world and assembles an engine.
func BuildEngine(w *worldgen.World, cost planner.CostModel, seed int64) (*core.Engine, error) {
	var sentences, texts []string
	for _, c := range w.Document.Claims {
		sentences = append(sentences, c.Sentence)
		texts = append(texts, c.Text)
	}
	pipe, err := feature.Fit(sentences, texts, feature.Config{
		Embedding: embed.Config{Dim: 32, Seed: seed},
		MinDF:     2,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Cost = cost
	cfg.Classifier.Seed = seed
	cfg.Classifier.Epochs = 5
	return core.NewEngine(w.Corpus, pipe, cfg)
}

// --- User study (Figures 5 and 6) -----------------------------------------

// StudyConfig parameterises the user-study replica.
type StudyConfig struct {
	// World generates the underlying corpus/document (defaults to
	// worldgen.SmallScale scaled up enough to pick study claims).
	World worldgen.Config
	// NumClaims is the study size (paper: 43, of which 3 are training).
	NumClaims int
	// TopFormulas restricts study claims to the most frequent formulas
	// (paper: 10).
	TopFormulas int
	// Minutes is each checker's time budget (paper: 20).
	Minutes float64
	// ManualCheckers and SystemCheckers are the group sizes (paper: 3
	// and 4).
	ManualCheckers, SystemCheckers int
	// SkipProb is the chance a checker skips a claim.
	SkipProb float64
	// BaseRead is the per-claim reading overhead in seconds, paid in
	// both processes.
	BaseRead float64
	// WorkerAccuracy is the per-option judgement accuracy.
	WorkerAccuracy float64
	// Seed drives worker jitter and skipping.
	Seed int64
}

// DefaultStudyConfig mirrors §6.1.
func DefaultStudyConfig() StudyConfig {
	w := worldgen.SmallScale()
	w.NumClaims = 400
	w.NumFormulas = 40
	w.ErrorRate = 0.25
	return StudyConfig{
		World:          w,
		NumClaims:      43,
		TopFormulas:    10,
		Minutes:        20,
		ManualCheckers: 3,
		SystemCheckers: 4,
		SkipProb:       0.06,
		BaseRead:       15,
		WorkerAccuracy: 0.97,
		Seed:           61,
	}
}

// CheckerResult is one bar of Figure 5.
type CheckerResult struct {
	Name      string
	Manual    bool
	Correct   int
	Incorrect int
	Skipped   int
	Seconds   float64
}

// Processed returns correct+incorrect (the Figure 5 stack height minus
// skips).
func (c CheckerResult) Processed() int { return c.Correct + c.Incorrect }

// ComplexityPoint is one x-position of Figure 6.
type ComplexityPoint struct {
	Complexity  int
	ManualMean  float64
	ManualStd   float64
	SystemMean  float64
	SystemStd   float64
	ManualCount int
	SystemCount int
}

// StudyResult aggregates the user-study replica.
type StudyResult struct {
	Checkers   []CheckerResult
	Complexity []ComplexityPoint
	// ManualAvg and SystemAvg are mean processed claims per checker.
	ManualAvg, SystemAvg float64
	// MajorityAccuracy is the accuracy of 3-checker majority voting in
	// the system group (the paper reports 100%).
	MajorityAccuracy float64
}

// RunUserStudy executes the §6.1 replica.
func RunUserStudy(cfg StudyConfig) (*StudyResult, error) {
	if cfg.NumClaims <= 3 {
		return nil, fmt.Errorf("sim: study needs more than 3 claims")
	}
	w, err := worldgen.Generate(cfg.World)
	if err != nil {
		return nil, err
	}
	engine, err := BuildEngine(w, StudyCostModel(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	// "We trained Scrutinizer with all the annotated statistical claims."
	if err := engine.Train(w.Document.Claims); err != nil {
		return nil, err
	}

	study := selectStudyClaims(w, engine, cfg)
	if len(study) < cfg.NumClaims {
		return nil, fmt.Errorf("sim: only %d claims available for the study, need %d", len(study), cfg.NumClaims)
	}
	study = study[:cfg.NumClaims]
	study = study[3:] // first three are process-training claims

	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &StudyResult{}
	budget := cfg.Minutes * 60

	var timings []timing

	// Manual group M1..Mn.
	for i := 0; i < cfg.ManualCheckers; i++ {
		worker, err := crowd.NewWorker(fmt.Sprintf("M%d", i+1), 0.8+float64(rng.Float64()*0.5), cfg.WorkerAccuracy, rng.Int63())
		if err != nil {
			return nil, err
		}
		cr := CheckerResult{Name: worker.Name, Manual: true}
		for _, c := range study {
			if cr.Seconds >= budget {
				break
			}
			if rng.Float64() < cfg.SkipProb {
				cr.Skipped++
				continue
			}
			truthQ, err := engine.TruthQuery(c)
			if err != nil {
				return nil, err
			}
			ans := worker.ManualVerify(truthQ.SQL(), StudyCostModel())
			secs := ans.Seconds + float64(cfg.BaseRead*worker.Speed)
			cr.Seconds += secs
			timings = append(timings, timing{c.Complexity(), secs, true})
			if judgeManual(c, ans) {
				cr.Correct++
			} else {
				cr.Incorrect++
			}
		}
		res.Checkers = append(res.Checkers, cr)
	}

	// System group S1..Sn: each checker is a singleton team.
	type sysJudgement struct {
		checker, claim int
		right          bool
	}
	var judgements []sysJudgement
	for i := 0; i < cfg.SystemCheckers; i++ {
		worker, err := crowd.NewWorker(fmt.Sprintf("S%d", i+1), 0.8+float64(rng.Float64()*0.5), cfg.WorkerAccuracy, rng.Int63())
		if err != nil {
			return nil, err
		}
		team := &crowd.Team{Workers: []*crowd.Worker{worker}}
		cr := CheckerResult{Name: worker.Name}
		for ci, c := range study {
			if cr.Seconds >= budget {
				break
			}
			if rng.Float64() < cfg.SkipProb {
				cr.Skipped++
				continue
			}
			out, err := engine.VerifyClaim(context.Background(), c, team)
			if err != nil {
				return nil, err
			}
			secs := out.Seconds + float64(cfg.BaseRead*worker.Speed)
			cr.Seconds += secs
			timings = append(timings, timing{c.Complexity(), secs, false})
			right := out.Verdict != core.VerdictSkipped && (out.Verdict == core.VerdictCorrect) == c.Correct
			judgements = append(judgements, sysJudgement{i, ci, right})
			if right {
				cr.Correct++
			} else {
				cr.Incorrect++
			}
		}
		res.Checkers = append(res.Checkers, cr)
	}

	// Majority voting across the first three system checkers.
	votes := map[int][]bool{}
	for _, j := range judgements {
		if j.checker < 3 {
			votes[j.claim] = append(votes[j.claim], j.right)
		}
	}
	maj, majTotal := 0, 0
	for _, vs := range votes {
		if len(vs) < 3 {
			continue
		}
		majTotal++
		right := 0
		for _, v := range vs {
			if v {
				right++
			}
		}
		if right >= 2 {
			maj++
		}
	}
	if majTotal > 0 {
		res.MajorityAccuracy = float64(maj) / float64(majTotal)
	}

	// Averages.
	var mSum, sSum, mN, sN float64
	for _, cr := range res.Checkers {
		if cr.Manual {
			mSum += float64(cr.Processed())
			mN++
		} else {
			sSum += float64(cr.Processed())
			sN++
		}
	}
	if mN > 0 {
		res.ManualAvg = mSum / mN
	}
	if sN > 0 {
		res.SystemAvg = sSum / sN
	}

	// Figure 6: complexity buckets.
	res.Complexity = bucketTimings(timings)
	return res, nil
}

// selectStudyClaims picks claims whose formula is among the TopFormulas most
// frequent ones (the paper's selection rule).
func selectStudyClaims(w *worldgen.World, engine *core.Engine, cfg StudyConfig) []*claims.Claim {
	top := map[string]bool{}
	for _, key := range engine.Library().TopK(cfg.TopFormulas) {
		top[key] = true
	}
	var out []*claims.Claim
	for _, c := range w.Document.Claims {
		if c.Truth == nil {
			continue
		}
		// Match on the canonicalised formula string.
		if key := canonicalFormula(c.Truth.Formula); top[key] {
			out = append(out, c)
		}
	}
	return out
}

func canonicalFormula(src string) string {
	f, err := formula.ParseFormula(src)
	if err != nil {
		return src
	}
	return f.String()
}

// judgeManual scores a manual check: the worker judged right when their
// written query equals the truth (accurate manual checks always conclude
// correctly about the claim).
func judgeManual(c *claims.Claim, ans crowd.Answer) bool {
	// An accurate answer reproduces the truth SQL; then the checker's
	// conclusion matches the claim's actual correctness.
	return ans.Value != "" && ans.Value[len(ans.Value)-1] != '?'
}

// timing is one measured claim verification for Figure 6.
type timing struct {
	complexity int
	seconds    float64
	manual     bool
}

func bucketTimings(timings []timing) []ComplexityPoint {
	type agg struct {
		n    int
		sum  float64
		sum2 float64
	}
	man := map[int]*agg{}
	sys := map[int]*agg{}
	maxC := 0
	for _, t := range timings {
		m := sys
		if t.manual {
			m = man
		}
		a := m[t.complexity]
		if a == nil {
			a = &agg{}
			m[t.complexity] = a
		}
		a.n++
		a.sum += t.seconds
		a.sum2 += float64(t.seconds * t.seconds)
		if t.complexity > maxC {
			maxC = t.complexity
		}
	}
	var out []ComplexityPoint
	for c := 0; c <= maxC; c++ {
		ma, sa := man[c], sys[c]
		if ma == nil && sa == nil {
			continue
		}
		p := ComplexityPoint{Complexity: c}
		if ma != nil && ma.n > 0 {
			p.ManualCount = ma.n
			p.ManualMean = ma.sum / float64(ma.n)
			p.ManualStd = stddev(ma.sum, ma.sum2, ma.n)
		}
		if sa != nil && sa.n > 0 {
			p.SystemCount = sa.n
			p.SystemMean = sa.sum / float64(sa.n)
			p.SystemStd = stddev(sa.sum, sa.sum2, sa.n)
		}
		out = append(out, p)
	}
	return out
}

func stddev(sum, sum2 float64, n int) float64 {
	if n < 2 {
		return 0
	}
	mean := sum / float64(n)
	v := sum2/float64(n) - float64(mean*mean)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
