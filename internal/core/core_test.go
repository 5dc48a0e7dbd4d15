package core

import (
	"context"
	"math"
	"testing"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/embed"
	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/feature"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// buildEngine creates an engine over a small synthetic world.
func buildEngine(t testing.TB, cfgWorld worldgen.Config) (*Engine, *worldgen.World) {
	t.Helper()
	w, err := worldgen.Generate(cfgWorld)
	if err != nil {
		t.Fatal(err)
	}
	var sentences, texts []string
	for _, c := range w.Document.Claims {
		sentences = append(sentences, c.Sentence)
		texts = append(texts, c.Text)
	}
	pipe, err := feature.Fit(sentences, texts, feature.Config{
		Embedding: embed.Config{Dim: 24, Seed: 5},
		MinDF:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Classifier.Epochs = 4
	e, err := NewEngine(w.Corpus, pipe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, w
}

func tinyWorld() worldgen.Config {
	cfg := worldgen.SmallScale()
	cfg.NumClaims = 60
	cfg.NumSections = 6
	return cfg
}

func TestPropertyKindStrings(t *testing.T) {
	want := map[PropertyKind]string{
		PropRelation: "relation", PropKey: "key",
		PropAttr: "attribute", PropFormula: "formula",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d = %q, want %q", k, k.String(), s)
		}
	}
	if PropertyKind(9).String() == "" {
		t.Error("unknown kind should print")
	}
	if len(PropertyKinds()) != 4 {
		t.Error("PropertyKinds should list 4")
	}
}

func TestJoinSplitLabel(t *testing.T) {
	if JoinLabel([]string{"a", "b"}) != "a|b" {
		t.Error("JoinLabel wrong")
	}
	got := SplitLabel("a|b")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("SplitLabel = %v", got)
	}
	if SplitLabel("") != nil {
		t.Error("SplitLabel empty should be nil")
	}
}

func TestTruthLabel(t *testing.T) {
	gt := &claims.GroundTruth{
		Relations: []string{"R1", "R2"}, Keys: []string{"K"},
		Attrs: []string{"2016", "2017"}, Formula: "a.A1",
	}
	if TruthLabel(gt, PropRelation) != "R1|R2" ||
		TruthLabel(gt, PropKey) != "K" ||
		TruthLabel(gt, PropAttr) != "2016|2017" ||
		TruthLabel(gt, PropFormula) != "a.A1" {
		t.Error("TruthLabel wrong")
	}
	if TruthLabel(nil, PropKey) != "" {
		t.Error("nil truth should yield empty label")
	}
}

func TestNewEngineValidation(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if e.Corpus() != w.Corpus {
		t.Error("Corpus accessor wrong")
	}
	if _, err := NewEngine(nil, nil, Config{}); err == nil {
		t.Error("nil corpus accepted")
	}
	if _, err := NewEngine(w.Corpus, nil, Config{}); err == nil {
		t.Error("nil pipeline accepted")
	}
}

func TestTrainAndCandidates(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	c := w.Document.Claims[0]
	cands := e.Candidates(c)
	if len(cands) != 4 {
		t.Fatalf("candidates = %d properties", len(cands))
	}
	for _, p := range cands {
		if len(p.Options) == 0 {
			t.Errorf("property %s has no options after training", p.Name)
		}
		for i := 1; i < len(p.Options); i++ {
			if p.Options[i-1].Prob < p.Options[i].Prob {
				t.Errorf("property %s options unsorted", p.Name)
			}
		}
	}
	// Library populated from formulas.
	if e.Library().Len() == 0 {
		t.Error("formula library empty after training")
	}
}

func TestTrainRejectsMalformedFormula(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	bad := &claims.Claim{ID: 999, Text: "x", Sentence: "x", Truth: &claims.GroundTruth{
		Relations: []string{"R"}, Keys: []string{"K"}, Attrs: []string{"2017"},
		Formula: "((((",
	}}
	if err := e.Train(append(w.Document.Claims[:3], bad)); err == nil {
		t.Error("malformed formula accepted")
	}
}

func TestUtilityDropsWithTraining(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	c := w.Document.Claims[0]
	untrained := e.Utility(c)
	if untrained != 4 {
		t.Errorf("untrained utility = %g, want 4 (1 per model)", untrained)
	}
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	trained := e.Utility(c)
	if trained >= untrained {
		t.Errorf("utility should drop after training: %g -> %g", untrained, trained)
	}
}

func TestGenerateQueriesFindsTruth(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	// Use ground-truth context directly (as if crowd-validated).
	for _, c := range w.Document.Claims[:20] {
		ctx := Context{
			Relations: c.Truth.Relations,
			Keys:      c.Truth.Keys,
			Attrs:     c.Truth.Attrs,
		}
		f, err := formula.ParseFormula(c.Truth.Formula)
		if err != nil {
			t.Fatal(err)
		}
		hasParam := c.Kind == claims.Explicit && c.HasParam
		sols, alts, _ := e.GenerateQueries(context.Background(), ctx, []*formula.Formula{f}, c.Param, hasParam)
		if hasParam && c.Correct {
			if len(sols) == 0 {
				t.Errorf("claim %d (%q): no solution found", c.ID, c.Text)
				continue
			}
			if !claims.RelClose(sols[0].Value, c.Param, e.cfg.Tolerance) {
				t.Errorf("claim %d: solution value %g vs param %g", c.ID, sols[0].Value, c.Param)
			}
		}
		if hasParam && !c.Correct && len(sols) > 0 {
			// A perturbed parameter should not be matched by the truth
			// formula on the truth context (other assignments could
			// accidentally match, which the crowd's final screen weeds
			// out — only assert the truth assignment is in alternates).
			found := false
			for _, a := range alts {
				if math.Abs(a.Value-c.Truth.Value) < 1e-9*math.Max(1, math.Abs(c.Truth.Value)) {
					found = true
				}
			}
			_ = found // accidental matches tolerated
		}
	}
}

func TestGenerateQueriesEmptyContext(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	f := formula.MustParseFormula("a.A1")
	sols, alts, _ := e.GenerateQueries(context.Background(), Context{}, []*formula.Formula{f}, 1, true)
	if len(sols) != 0 || len(alts) != 0 {
		t.Error("empty context should generate nothing")
	}
	// Nil formulas are skipped.
	sols, alts, _ = e.GenerateQueries(context.Background(), Context{Relations: []string{"R"}, Keys: []string{"K"}}, nil, 1, true)
	if len(sols) != 0 || len(alts) != 0 {
		t.Error("no formulas should generate nothing")
	}
	// A hand-built formula the compiler rejects generates nothing.
	bad := &formula.Formula{NumBindings: 1, AttrVars: []string{"A1"},
		Expr: expr.BinOp{Op: "%", Left: expr.CellRef{Alias: "a", Attr: "A1"}, Right: expr.Num{Value: 2}}}
	truth := w.Document.Claims[0].Truth
	qc := Context{Relations: truth.Relations, Keys: truth.Keys, Attrs: truth.Attrs}
	sols, alts, _ = e.GenerateQueries(context.Background(), qc, []*formula.Formula{bad}, 1, true)
	if len(sols) != 0 || len(alts) != 0 {
		t.Error("an uncompilable formula should generate nothing")
	}
}

func TestGenerateQueriesAlternatesBounded(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	c := w.Document.Claims[0]
	ctx := Context{
		Relations: c.Truth.Relations,
		Keys:      c.Truth.Keys,
		Attrs:     []string{"2010", "2011", "2012", "2013"},
	}
	f := formula.MustParseFormula("a.A1 / b.A2")
	_, alts, _ := e.GenerateQueries(context.Background(), ctx, []*formula.Formula{f}, 1e12, true)
	if len(alts) > e.cfg.MaxAlternates {
		t.Errorf("alternates = %d exceeds cap %d", len(alts), e.cfg.MaxAlternates)
	}
}

func TestTruthQueryMatchesAnnotation(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	for _, c := range w.Document.Claims {
		q, err := e.TruthQuery(c)
		if err != nil {
			t.Fatalf("claim %d: %v", c.ID, err)
		}
		v, err := q.Execute(w.Corpus)
		if err != nil {
			t.Fatalf("claim %d truth query exec: %v", c.ID, err)
		}
		if math.Abs(v-c.Truth.Value) > 1e-9*math.Max(1, math.Abs(v)) {
			t.Fatalf("claim %d: truth query %g vs annotation %g", c.ID, v, c.Truth.Value)
		}
	}
	if _, err := e.TruthQuery(&claims.Claim{}); err == nil {
		t.Error("claim without truth accepted")
	}
}

func TestVerifyClaimColdStart(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Document.Claims[0]
	out, err := e.VerifyClaim(context.Background(), c, team)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict == VerdictSkipped {
		t.Fatalf("cold-start claim skipped: %+v", out)
	}
	if (out.Verdict == VerdictCorrect) != c.Correct {
		t.Errorf("verdict %v but claim Correct=%v", out.Verdict, c.Correct)
	}
	if out.Seconds <= 0 {
		t.Error("no crowd time recorded")
	}
	if out.Label == nil {
		t.Error("no training label produced")
	}
}

func TestVerifyClaimErrors(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.VerifyClaim(context.Background(), nil, team); err == nil {
		t.Error("nil claim accepted")
	}
	if _, err := e.VerifyClaim(context.Background(), &claims.Claim{ID: 1}, team); err == nil {
		t.Error("claim without truth accepted")
	}
	if _, err := e.VerifyClaim(context.Background(), w.Document.Claims[0], nil); err == nil {
		t.Error("nil team accepted")
	}
}

func TestVerifyEndToEnd(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	res, err := e.Verify(context.Background(), w.Document, team, VerifyConfig{
		BatchSize:       20,
		SectionReadCost: 30,
		Ordering:        OrderILP,
		AfterBatch: func(b, verified int, outs []*Outcome) {
			batches = b
			if len(outs) == 0 {
				t.Error("empty batch outcome")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(w.Document.Claims) {
		t.Fatalf("verified %d of %d claims", len(res.Outcomes), len(w.Document.Claims))
	}
	if res.Batches != batches || batches == 0 {
		t.Errorf("batches = %d, callback saw %d", res.Batches, batches)
	}
	if res.Seconds <= 0 {
		t.Error("no time recorded")
	}
	// Perfect workers + majority voting: accuracy must be 1.0 (the user
	// study reports 100% with majority voting).
	if acc := Accuracy(w.Document, res.Outcomes); acc < 0.98 {
		t.Errorf("accuracy = %g, want ~1.0", acc)
	}
}

func TestVerifySequentialOrdering(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var firstBatch []int
	res, err := e.Verify(context.Background(), w.Document, team, VerifyConfig{
		BatchSize: 10,
		Ordering:  OrderSequential,
		AfterBatch: func(b, v int, outs []*Outcome) {
			if b == 1 {
				for _, o := range outs {
					firstBatch = append(firstBatch, o.ClaimID)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches < 2 {
		t.Errorf("expected multiple batches, got %d", res.Batches)
	}
	// Sequential ordering = document order: the first batch must be
	// claims 1..10.
	for i, id := range firstBatch {
		if id != i+1 {
			t.Errorf("sequential first batch = %v", firstBatch)
			break
		}
	}
}

func TestAccuracyHelpers(t *testing.T) {
	doc := &claims.Document{Sections: 1, Claims: []*claims.Claim{
		{ID: 1, Correct: true, Truth: &claims.GroundTruth{Value: 10}},
		{ID: 2, Correct: false, Truth: &claims.GroundTruth{Value: 20}},
	}}
	outs := []*Outcome{
		{ClaimID: 1, Verdict: VerdictCorrect},
		{ClaimID: 2, Verdict: VerdictCorrect}, // wrong: claim is incorrect
	}
	if acc := Accuracy(doc, outs); acc != 0.5 {
		t.Errorf("Accuracy = %g, want 0.5", acc)
	}
	if acc := Accuracy(doc, nil); acc != 0 {
		t.Errorf("empty Accuracy = %g", acc)
	}
	// Skipped outcomes excluded.
	outs = []*Outcome{{ClaimID: 1, Verdict: VerdictSkipped}}
	if acc := Accuracy(doc, outs); acc != 0 {
		t.Errorf("skipped-only Accuracy = %g", acc)
	}
	// MeanAbsError over suggestions.
	outs = []*Outcome{{ClaimID: 2, Verdict: VerdictIncorrect, Suggestion: 20, HasSuggestion: true}}
	if mae := MeanAbsError(doc, outs); mae != 0 {
		t.Errorf("exact suggestion MAE = %g", mae)
	}
	if mae := MeanAbsError(doc, nil); mae != 0 {
		t.Errorf("empty MAE = %g", mae)
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictCorrect.String() != "correct" || VerdictIncorrect.String() != "incorrect" || VerdictSkipped.String() != "skipped" {
		t.Error("verdict strings wrong")
	}
	if Verdict(9).String() == "" || Ordering(9).String() == "" {
		t.Error("unknown enums should print")
	}
	if OrderILP.String() != "ilp" || OrderSequential.String() != "sequential" || OrderGreedy.String() != "greedy" {
		t.Error("ordering strings wrong")
	}
}

func TestAssessMatchesSeparateCalls(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	for _, c := range w.Document.Claims[:10] {
		cost, utility := e.Assess(c)
		if got := e.Utility(c); math.Abs(got-utility) > 1e-12 {
			t.Errorf("claim %d: Assess utility %g vs Utility %g", c.ID, utility, got)
		}
		plan, _, err := e.PlanQuestions(c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(plan.ExpectedCost-cost) > 1e-12 {
			t.Errorf("claim %d: Assess cost %g vs plan %g", c.ID, cost, plan.ExpectedCost)
		}
	}
	// Untrained: utility 4 (1 per model), cost near the cold-start level.
	e2, w2 := buildEngine(t, tinyWorld())
	cost, utility := e2.Assess(w2.Document.Claims[0])
	if utility != 4 {
		t.Errorf("untrained Assess utility = %g", utility)
	}
	if cost < e2.cfg.Cost.ManualCost() {
		t.Errorf("untrained Assess cost %g below manual", cost)
	}
}

func TestVerifyRandomOrdering(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Verify(context.Background(), w.Document, team, VerifyConfig{
		BatchSize: 15,
		Ordering:  OrderRandom,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(w.Document.Claims) {
		t.Fatalf("random ordering verified %d of %d", len(res.Outcomes), len(w.Document.Claims))
	}
	if acc := Accuracy(w.Document, res.Outcomes); acc < 0.95 {
		t.Errorf("random-order accuracy = %g", acc)
	}
}

func TestVerifyTightBudgetFallback(t *testing.T) {
	// A batch budget too small for even one claim triggers the
	// document-order fallback; verification must still terminate and
	// cover every claim.
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Verify(context.Background(), w.Document, team, VerifyConfig{
		BatchSize:       10,
		BatchBudget:     1, // absurdly tight
		SectionReadCost: 10,
		Ordering:        OrderILP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(w.Document.Claims) {
		t.Fatalf("fallback verified %d of %d", len(res.Outcomes), len(w.Document.Claims))
	}
}

func TestVerifyNilAndInvalidDocument(t *testing.T) {
	e, _ := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 1, 1.0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Verify(context.Background(), nil, team, VerifyConfig{}); err == nil {
		t.Error("nil document accepted")
	}
	bad := &claims.Document{Sections: 1, Claims: []*claims.Claim{{ID: 1, Section: 5}}}
	if _, err := e.Verify(context.Background(), bad, team, VerifyConfig{}); err == nil {
		t.Error("invalid document accepted")
	}
}

func TestUtilityWeightVariantEndToEnd(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	team, err := crowd.NewTeam("S", 3, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Verify(context.Background(), w.Document, team, VerifyConfig{
		BatchSize:     15,
		Ordering:      OrderILP,
		UtilityWeight: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(w.Document.Claims) {
		t.Fatalf("variant verified %d of %d", len(res.Outcomes), len(w.Document.Claims))
	}
}

func TestExpectedCostColdVsTrained(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	c := w.Document.Claims[0]
	cold := e.ExpectedCost(c)
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	trained := e.ExpectedCost(c)
	if trained >= cold {
		t.Errorf("expected cost should drop after training: cold=%g trained=%g", cold, trained)
	}
}
