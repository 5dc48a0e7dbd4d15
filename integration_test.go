package scrutinizer

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/query"
	"github.com/repro/scrutinizer/internal/table"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// TestBootstrapBeatsColdStart verifies the headline active-learning claim:
// a verifier bootstrapped from previous checks spends less crowd time than
// a cold-started one on the same document.
func TestBootstrapBeatsColdStart(t *testing.T) {
	cfg := SmallWorld()
	cfg.NumClaims = 60
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}

	verify := func(bootstrap bool) float64 {
		training := w.Document.Unannotated()
		if bootstrap {
			training = w.Document
		}
		run, team := startRun(t, w.Corpus, training, w.Document, Options{Seed: 5})
		res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 15})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}

	cold := verify(false)
	warm := verify(true)
	if warm >= cold {
		t.Errorf("bootstrapped run (%.0fs) should beat cold start (%.0fs)", warm, cold)
	}
}

// TestMajorityVotingAbsorbsUnreliableWorker reproduces the §6.1 robustness
// property: one consistently wrong worker in a team of three does not
// change the aggregate verdicts.
func TestMajorityVotingAbsorbsUnreliableWorker(t *testing.T) {
	cfg := SmallWorld()
	cfg.NumClaims = 40
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, _ := startRun(t, w.Corpus, w.Document, w.Document, Options{Seed: 2})
	good1, err := crowd.NewWorker("G1", 1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	good2, err := crowd.NewWorker("G2", 1, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := crowd.NewWorker("B", 1, 0, 12) // always wrong
	if err != nil {
		t.Fatal(err)
	}
	team := &crowd.Team{Workers: []*crowd.Worker{bad, good1, good2}}

	right := 0
	for _, c := range w.Document.Claims {
		out, err := run.VerifyClaim(context.Background(), c, team)
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict != VerdictSkipped && (out.Verdict == VerdictCorrect) == c.Correct {
			right++
		}
	}
	if acc := float64(right) / float64(len(w.Document.Claims)); acc < 0.95 {
		t.Errorf("majority accuracy with one bad worker = %.2f, want ~1.0", acc)
	}
}

// TestErrorInjectionDetected: every incorrect explicit claim must receive a
// correction suggestion close to the annotated true value (Example 4).
func TestErrorInjectionDetected(t *testing.T) {
	cfg := SmallWorld()
	cfg.NumClaims = 60
	cfg.ErrorRate = 0.5
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, team := startRun(t, w.Corpus, w.Document, w.Document, Options{Seed: 8})
	suggestions, wrongClaims := 0, 0
	for _, c := range w.Document.Claims {
		if c.Correct || c.Kind != claims.Explicit {
			continue
		}
		wrongClaims++
		out, err := run.VerifyClaim(context.Background(), c, team)
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict != VerdictIncorrect {
			t.Errorf("claim %d (incorrect) judged %s", c.ID, out.Verdict)
			continue
		}
		if !out.HasSuggestion {
			continue
		}
		suggestions++
		rel := math.Abs(out.Suggestion-c.Truth.Value) / math.Max(1e-9, math.Abs(c.Truth.Value))
		if rel > 0.05 {
			t.Errorf("claim %d suggestion %.4g far from truth %.4g", c.ID, out.Suggestion, c.Truth.Value)
		}
	}
	if wrongClaims == 0 {
		t.Fatal("no incorrect explicit claims generated")
	}
	if suggestions*2 < wrongClaims {
		t.Errorf("only %d of %d incorrect claims got suggestions", suggestions, wrongClaims)
	}
}

// TestRandomQuerySQLRoundTripProperty: any well-formed query round-trips
// through SQL rendering and parsing with an identical execution result.
func TestRandomQuerySQLRoundTripProperty(t *testing.T) {
	corpus := table.NewCorpus()
	rel := table.MustNewRelation("R", "Index", []string{"2016", "2017", "2018"})
	keys := []string{"K1", "K2", "K3"}
	vals := [][]float64{{10, 20, 30}, {5, 6, 7}, {100, 200, 400}}
	for i, k := range keys {
		if err := rel.AddRow(k, vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := corpus.Add(rel); err != nil {
		t.Fatal(err)
	}
	attrs := []string{"2016", "2017", "2018"}
	exprs := []string{
		"a.A1", "a.A1 / b.A2", "a.A1 - b.A2", "a.A1 + b.A1",
		"POWER(a.A1 / b.A2, 1 / (A1 - A2)) - 1", "AVG(a.A1, b.A2)",
		"(a.A1 / b.A2) * 100", "ABS(a.A1 - b.A2)",
	}
	f := func(eIdx, k1, k2, a1, a2 uint8) bool {
		src := exprs[int(eIdx)%len(exprs)]
		node := expr.MustParse(src)
		attr1 := attrs[int(a1)%len(attrs)]
		attr2 := attrs[int(a2)%len(attrs)]
		if attr1 == attr2 {
			attr2 = attrs[(int(a2)+1)%len(attrs)]
		}
		q := &query.Query{
			Select:       node,
			AttrBindings: map[string]string{"A1": attr1, "A2": attr2},
		}
		for _, alias := range expr.Aliases(node) {
			key := keys[int(k1)%len(keys)]
			if alias == "b" {
				key = keys[int(k2)%len(keys)]
			}
			q.Bindings = append(q.Bindings, query.Binding{Alias: alias, Relation: "R", Key: key})
		}
		v1, err1 := q.Execute(corpus)
		parsed, perr := query.Parse(q.SQL())
		if perr != nil {
			return false
		}
		v2, err2 := parsed.Execute(corpus)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return math.Abs(v1-v2) < 1e-9*math.Max(1, math.Abs(v1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGeneralizeInstantiateRoundTripProperty: generalising a concrete
// expression and instantiating the formula with the original labels
// evaluates to the original value.
func TestGeneralizeInstantiateRoundTripProperty(t *testing.T) {
	corpus := table.NewCorpus()
	rel := table.MustNewRelation("R", "Index", []string{"2016", "2017"})
	if err := rel.AddRow("K", []float64{50, 60}); err != nil {
		t.Fatal(err)
	}
	if err := corpus.Add(rel); err != nil {
		t.Fatal(err)
	}
	sources := []string{
		"a.2017 / b.2016",
		"a.2017 - b.2016",
		"POWER(a.2017/b.2016, 1/(2017-2016)) - 1",
		"(a.2017 / b.2016) * 100",
		"ABS(a.2017) + 1",
	}
	for _, src := range sources {
		concrete := expr.MustParse(src)
		q1 := &query.Query{Select: concrete, Bindings: []query.Binding{
			{Alias: "a", Relation: "R", Key: "K"},
			{Alias: "b", Relation: "R", Key: "K"},
		}}
		// Restrict bindings to the aliases the expression actually uses.
		q1.Bindings = q1.Bindings[:len(expr.Aliases(concrete))]
		v1, err := q1.Execute(corpus)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		gen, reverse, err := formula.Generalize(concrete)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		q2 := &query.Query{Select: gen.Expr, AttrBindings: reverse}
		for _, alias := range expr.Aliases(gen.Expr) {
			q2.Bindings = append(q2.Bindings, query.Binding{Alias: alias, Relation: "R", Key: "K"})
		}
		v2, err := q2.Execute(corpus)
		if err != nil {
			t.Fatalf("%s (generalised): %v", src, err)
		}
		if math.Abs(v1-v2) > 1e-9*math.Max(1, math.Abs(v1)) {
			t.Errorf("%s: concrete %g vs generalised %g", src, v1, v2)
		}
	}
}

// TestVerifySkipsAreRareWithAccurateCrowd: with an accurate crowd the
// system should essentially never fail to resolve a claim.
func TestVerifySkipsAreRareWithAccurateCrowd(t *testing.T) {
	cfg := SmallWorld()
	cfg.NumClaims = 80
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, team := startRun(t, w.Corpus, w.Document.Unannotated(), w.Document, Options{Seed: 21})
	res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 20, Ordering: core.OrderGreedy})
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, o := range res.Outcomes {
		if o.Verdict == VerdictSkipped {
			skipped++
		}
	}
	if skipped > len(res.Outcomes)/20 {
		t.Errorf("%d of %d claims skipped", skipped, len(res.Outcomes))
	}
}

// TestReportMentionsEveryClaim: the rendered report covers each claim ID.
func TestReportMentionsEveryClaim(t *testing.T) {
	cfg := SmallWorld()
	cfg.NumClaims = 30
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, team := startRun(t, w.Corpus, w.Document.Unannotated(), w.Document, Options{Seed: 4})
	res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	for _, c := range w.Document.Claims {
		if !strings.Contains(rep, c.Text) {
			t.Errorf("report missing claim %d text", c.ID)
		}
	}
}

// TestCrossEditionBootstrap reproduces the IEA deployment pattern: the
// 2018 edition's checks bootstrap verification of the (different) 2019
// edition. Training on last year's annotated claims must cut crowd time on
// this year's document versus a cold start.
func TestCrossEditionBootstrap(t *testing.T) {
	cfg := SmallWorld()
	cfg.NumClaims = 80
	lastYear, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2019 // same corpus vocabulary, new values and claims
	thisYear, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same relation vocabulary across editions (the agency's tables).
	if lastYear.Corpus.Names()[0] != thisYear.Corpus.Names()[0] {
		t.Fatal("editions should share the relation vocabulary")
	}

	verify := func(bootstrap bool) float64 {
		// Features are fitted on this year's text either way; only the
		// classifiers differ.
		v, err := NewVerifier(thisYear.Corpus, thisYear.Document.Unannotated(), Options{Seed: 44})
		if err != nil {
			t.Fatal(err)
		}
		if bootstrap {
			if err := v.Retrain(lastYear.Document.Claims); err != nil {
				t.Fatal(err)
			}
		}
		run, err := v.StartRun(context.Background(), thisYear.Document)
		if err != nil {
			t.Fatal(err)
		}
		team, err := v.NewTeam(3)
		if err != nil {
			t.Fatal(err)
		}
		// One batch spanning the whole document: mid-run retraining would
		// let the cold start catch up after its first batch and reduce the
		// comparison to crowd-timing noise; a single batch isolates the
		// structural advantage of arriving with trained classifiers.
		res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: len(thisYear.Document.Claims)})
		if err != nil {
			t.Fatal(err)
		}
		if acc := res.Accuracy(); acc < 0.9 {
			t.Errorf("bootstrap=%v accuracy = %g", bootstrap, acc)
		}
		return res.Seconds
	}
	cold := verify(false)
	warm := verify(true)
	if warm >= cold {
		t.Errorf("cross-edition bootstrap (%.0fs) should beat cold start (%.0fs)", warm, cold)
	}
}

// TestHopelessCrowdSkipsClaims: a crowd that corrupts every answer cannot
// produce executable queries; claims end skipped, not mislabelled.
func TestHopelessCrowdSkipsClaims(t *testing.T) {
	cfg := SmallWorld()
	cfg.NumClaims = 20
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, _ := startRun(t, w.Corpus, w.Document.Unannotated(), w.Document, Options{Seed: 13})
	var workers []*crowd.Worker
	for i := 0; i < 3; i++ {
		bad, err := crowd.NewWorker("B", 1, 0, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, bad)
	}
	team := &crowd.Team{Workers: workers}
	// Cold start + always-wrong workers: the context is corrupted and the
	// final answer is a corrupt SQL string -> the engine must skip or
	// judge; it must never crash, and nothing should be judged correct
	// for the wrong reason more often than chance would allow.
	skippedOrJudged := 0
	for _, c := range w.Document.Claims[:10] {
		out, err := run.VerifyClaim(context.Background(), c, team)
		if err != nil {
			t.Fatal(err)
		}
		skippedOrJudged++
		if out.Verdict == VerdictSkipped && out.Query != nil {
			t.Error("skipped outcome should carry no query")
		}
	}
	if skippedOrJudged != 10 {
		t.Error("verification loop aborted")
	}
}

// TestWorldgenPaperScaleVocabularySizes checks that the paper-scale
// configuration hits the §6 cardinalities (skipped in -short).
func TestWorldgenPaperScaleVocabularySizes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	cfg := worldgen.PaperScale()
	w, err := worldgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Document.Claims); got != 1539 {
		t.Errorf("claims = %d, want 1539", got)
	}
	if got := w.Corpus.Len(); got != 17*35*3 {
		t.Errorf("relations = %d, want 1785", got)
	}
	if got := len(w.FormulaVocab); got != 413 {
		t.Errorf("formulas = %d, want 413", got)
	}
	// About half the claims are explicit, as in the paper.
	explicit := 0
	for _, c := range w.Document.Claims {
		if c.Kind == claims.Explicit {
			explicit++
		}
	}
	frac := float64(explicit) / float64(len(w.Document.Claims))
	if frac < 0.3 || frac > 0.85 {
		t.Errorf("explicit fraction = %.2f", frac)
	}
}
