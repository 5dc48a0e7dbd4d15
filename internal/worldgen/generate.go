package worldgen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/query"
	"github.com/repro/scrutinizer/internal/table"
)

// claimGen holds the shared state of claim generation.
type claimGen struct {
	cfg    Config
	rng    *rand.Rand
	rels   []relSpec
	keys   []keySpec
	years  []string
	vocab  []formulaSpec
	corpus *table.Corpus
}

// pickYearIdx samples a year with recency bias: the focus years near the
// report's "present" (80th percentile of the span) dominate, mimicking how
// 2017/2018 appear in almost every claim of the 2018 outlook (the heavy
// tail of Table 1's attribute row).
func (g *claimGen) pickYearIdx() int {
	n := len(g.years)
	focus := int(float64(n) * 0.8)
	if g.rng.Float64() < 0.6 {
		// Near the focus year.
		off := g.rng.Intn(5) - 2
		i := focus + off
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	return g.rng.Intn(n)
}

// pickYearPair returns two distinct year indexes with later > earlier
// (A1 = later, A2 = earlier in the formula convention). Year-over-year
// comparisons dominate, with round decade/half-decade spans for the rest —
// the comparison spans real reports use, and a learnable signal for the
// attribute classifier.
func (g *claimGen) pickYearPair() (later, earlier int) {
	a := g.pickYearIdx()
	var gap int
	switch r := g.rng.Float64(); {
	case r < 0.65:
		gap = 1
	case r < 0.80:
		gap = 5
	case r < 0.92:
		gap = 10
	default:
		gap = 20
	}
	b := a - gap
	if b < 0 {
		b = 0
		if a == 0 {
			a = 1
		}
	}
	return a, b
}

// claim generates one annotated claim plus its candidate lists.
func (g *claimGen) claim(id int) (*claims.Claim, CandidateLists, error) {
	const maxTries = 60
	for try := 0; try < maxTries; try++ {
		c, cand, err := g.tryClaim(id)
		if err == nil {
			return c, cand, nil
		}
	}
	return nil, CandidateLists{}, fmt.Errorf("worldgen: could not generate claim %d after %d tries", id, maxTries)
}

func (g *claimGen) tryClaim(id int) (*claims.Claim, CandidateLists, error) {
	spec := g.vocab[zipfPick(g.rng, len(g.vocab), 1.25)]

	// Pick a relation (Zipf over the vocabulary) and keys from its rows.
	relIdx := zipfPick(g.rng, len(g.rels), 1.05)
	rs := g.rels[relIdx]
	if len(rs.keyIdx) == 0 {
		return nil, CandidateLists{}, fmt.Errorf("worldgen: relation %s has no keys", rs.name)
	}
	k1 := rs.keyIdx[zipfPick(g.rng, len(rs.keyIdx), 0.9)]
	k2 := k1
	if spec.twoKeys {
		for attempts := 0; attempts < 8 && k2 == k1; attempts++ {
			k2 = rs.keyIdx[g.rng.Intn(len(rs.keyIdx))]
		}
		if k2 == k1 {
			return nil, CandidateLists{}, fmt.Errorf("worldgen: no second key available")
		}
	}

	// Pick attributes.
	var attrLabels []string
	switch spec.attrVars {
	case 1:
		attrLabels = []string{g.years[g.pickYearIdx()]}
	case 2:
		l, e := g.pickYearPair()
		attrLabels = []string{g.years[l], g.years[e]}
	default:
		return nil, CandidateLists{}, fmt.Errorf("worldgen: formula %q needs %d attr vars", spec.text, spec.attrVars)
	}

	// Assemble annotation and evaluate the truth query.
	truth := &claims.GroundTruth{
		Relations: []string{rs.name},
		Attrs:     attrLabels,
		Formula:   spec.text,
	}
	if spec.twoKeys {
		truth.Keys = []string{g.keys[k1].code, g.keys[k2].code}
	} else {
		truth.Keys = []string{g.keys[k1].code}
	}
	value, err := g.evalTruth(truth)
	if err != nil {
		return nil, CandidateLists{}, err
	}
	truth.Value = value

	// Decide correctness and claim kind, then render text.
	correct := g.rng.Float64() >= g.cfg.ErrorRate
	explicit := g.rng.Float64() < g.cfg.ExplicitFraction

	c := &claims.Claim{ID: id, Truth: truth, Correct: correct}
	subject := regionNames[rs.region] + " " + g.keys[k1].subject
	if err := g.render(c, spec, subject, attrLabels, value, explicit, correct); err != nil {
		return nil, CandidateLists{}, err
	}

	// Sentence: claim embedded in context that carries relation signal
	// (region + scenario + family words).
	opener := openerPhrase[g.rng.Intn(len(openerPhrase))]
	closer := closerPhrase[g.rng.Intn(len(closerPhrase))]
	c.Sentence = fmt.Sprintf("%s in the %s scenario %s %s, %s",
		opener, scenarioNames[rs.scenario], familyNames[rs.family], c.Text, closer)

	cand := g.candidates(truth, relIdx, k1)
	return c, cand, nil
}

// evalTruth executes the canonical truth query (same convention as
// core.TruthQuery: aliases -> (Relations[i mod], Keys[i mod]); attr var i ->
// Attrs[i]).
func (g *claimGen) evalTruth(t *claims.GroundTruth) (float64, error) {
	f, err := formula.ParseFormula(t.Formula)
	if err != nil {
		return 0, err
	}
	q := &query.Query{Select: f.Expr, AttrBindings: map[string]string{}}
	for i, v := range f.AttrVars {
		q.AttrBindings[v] = t.Attrs[i]
	}
	for i, alias := range expr.Aliases(f.Expr) {
		q.Bindings = append(q.Bindings, query.Binding{
			Alias:    alias,
			Relation: t.Relations[i%len(t.Relations)],
			Key:      t.Keys[i%len(t.Keys)],
		})
	}
	return q.Execute(g.corpus)
}

// render produces the claim text, parameter and comparison. For incorrect
// claims, the stated parameter is perturbed well outside the 5% tolerance.
func (g *claimGen) render(c *claims.Claim, spec formulaSpec, subject string,
	attrs []string, value float64, explicit, correct bool) error {

	perturb := func(v float64) float64 {
		factor := 1.15 + float64(g.rng.Float64()*0.6) // 15%..75% off
		if g.rng.Intn(2) == 0 {
			return v / factor
		}
		return v * factor
	}
	verb := func(v float64) string {
		if v >= 0 {
			return growVerbs[g.rng.Intn(len(growVerbs))]
		}
		return shrinkVerbs[g.rng.Intn(len(shrinkVerbs))]
	}

	switch spec.family {
	case famCAGR, famGrowth:
		// Percentage growth claims; value is a rate like 0.031. The
		// stated rate keeps three significant digits so a correct claim
		// always passes the 5% relative tolerance even for tiny rates.
		rate := value
		stated := round3(rate)
		if !correct {
			stated = round3(perturb(rate + float64(signOf(rate)*0.001)))
			if claims.RelClose(stated, rate, 0.1) {
				stated = rate + 0.05 // force a visible contradiction
			}
		}
		// Mention both endpoint years when the span exceeds one year, so
		// the attribute pair is recoverable from the text; annual checks
		// (the common case) mention only the focus year. CAGR formulas
		// additionally say "per year", distinguishing them from simple
		// growth for the formula classifier.
		span := fmt.Sprintf("in %s", attrs[0])
		if attrs[0] != "" && attrs[1] != "" && yearGap(attrs[0], attrs[1]) > 1 {
			span = fmt.Sprintf("from %s to %s", attrs[1], attrs[0])
		}
		annual := ""
		if spec.family == famCAGR {
			annual = []string{" per year", " annually", " on average each year"}[g.rng.Intn(3)]
		}
		if explicit {
			c.Kind = claims.Explicit
			c.Cmp = claims.OpEq
			c.Param = stated
			c.HasParam = true
			c.Text = fmt.Sprintf("%s %s %s by %.3g%%%s", span, subject, verb(rate), math.Abs(stated)*100, annual)
		} else {
			c.Kind = claims.General
			op, param, word := g.pickQuantifier(rate, correct)
			c.Cmp = op
			c.Param = param
			c.HasParam = true
			c.Text = fmt.Sprintf("%s %s %s %s%s", span, subject, verb(rate), word, annual)
		}
	case famLookup:
		stated := round3(value)
		if !correct {
			stated = round3(perturb(value))
		}
		c.Kind = claims.Explicit
		c.Cmp = claims.OpEq
		c.Param = stated
		c.HasParam = true
		c.Text = fmt.Sprintf("%s stood at %s units in %s", subject, formatQty(stated), attrs[0])
		if !explicit {
			// Render as a "reaching" clause but it remains explicit: the
			// parameter is in the text.
			c.Text = fmt.Sprintf("%s kept rising, %s %s units in %s",
				subject, reachVerbs[g.rng.Intn(len(reachVerbs))], formatQty(stated), attrs[0])
		}
	case famRatio:
		fold := value
		stated := math.Round(fold*10) / 10
		if !correct {
			stated = math.Round(perturb(fold)*10) / 10
			if claims.RelClose(stated, fold, 0.1) {
				stated = fold * 2
			}
		}
		c.Kind = claims.Explicit
		c.Cmp = claims.OpEq
		c.Param = stated
		c.HasParam = true
		c.Text = fmt.Sprintf("the market for %s increased %.1f-fold from %s to %s", subject, stated, attrs[1], attrs[0])
	case famShare:
		pct := value // already ×100
		stated := math.Round(pct*10) / 10
		if !correct {
			stated = math.Round(perturb(pct)*10) / 10
		}
		c.Kind = claims.Explicit
		c.Cmp = claims.OpEq
		c.Param = stated
		c.HasParam = true
		// The formula already yields percent units, so the stated percent
		// is compared against the query value directly.
		c.Text = fmt.Sprintf("%s accounted for %.1f%% of the reference series in %s", subject, stated, attrs[0])
	case famDiff:
		stated := round3(value)
		if !correct {
			stated = round3(perturb(value + 1))
		}
		c.Kind = claims.Explicit
		c.Cmp = claims.OpEq
		c.Param = stated
		c.HasParam = true
		c.Text = fmt.Sprintf("%s changed by %s units between %s and %s",
			subject, formatQty(stated), attrs[1], attrs[0])
	case famSum, famAvg, famScaled:
		stated := round3(value)
		if !correct {
			stated = round3(perturb(value + 1))
		}
		c.Kind = claims.Explicit
		c.Cmp = claims.OpEq
		c.Param = stated
		c.HasParam = true
		what := map[formulaFamily]string{famSum: "combined output", famAvg: "average level", famScaled: "adjusted index"}[spec.family]
		c.Text = fmt.Sprintf("the %s of %s was %s in %s", what, subject, formatQty(stated), attrs[0])
	case famThreshold:
		// General claim whose formula already encodes the comparison:
		// "a.A1 > C" evaluates to 1 when the claim's assertion holds, so
		// the claim states that the query returns 1 (Example 9's Boolean
		// check pattern).
		holds := value >= 0.5
		c.Kind = claims.General
		c.Cmp = claims.OpEq
		c.Param = 1
		c.HasParam = true
		if holds {
			c.Text = fmt.Sprintf("%s exceeded %s units in %s", subject, formatQty(spec.constant), attrs[0])
		} else {
			c.Text = fmt.Sprintf("%s stayed above %s units in %s", subject, formatQty(spec.constant), attrs[0])
		}
		// Correctness is determined by the data: the claim asserts the
		// threshold holds; it is correct iff it does.
		c.Correct = holds
	default:
		return fmt.Errorf("worldgen: unhandled formula family %d", spec.family)
	}
	return nil
}

// pickQuantifier chooses a vague word whose lexicon meaning (op, param)
// agrees (correct) or disagrees (incorrect) with the observed rate.
func (g *claimGen) pickQuantifier(rate float64, correct bool) (claims.Op, float64, string) {
	type q struct {
		word  string
		op    claims.Op
		param float64
	}
	quantifiers := []q{
		{"aggressively", claims.OpGt, 1.0},
		{"strongly", claims.OpGt, 0.10},
		{"sharply", claims.OpGt, 0.15},
		{"rapidly", claims.OpGt, 0.12},
		{"significantly", claims.OpGt, 0.05},
		{"moderately", claims.OpGt, 0.02},
		{"scarcely", claims.OpLt, 0.02},
		{"marginally", claims.OpLt, 0.03},
		{"barely", claims.OpLt, 0.02},
	}
	g.rng.Shuffle(len(quantifiers), func(i, j int) {
		quantifiers[i], quantifiers[j] = quantifiers[j], quantifiers[i]
	})
	for _, cand := range quantifiers {
		holds := cand.op.Compare(rate, cand.param, 0)
		if holds == correct {
			return cand.op, cand.param, cand.word
		}
	}
	// Fallback: first quantifier; caller keeps the Correct flag
	// consistent with the actual comparison.
	f := quantifiers[0]
	return f.op, f.param, f.word
}

// candidates builds the annotation candidate lists (Table 1 input): truth
// values plus sibling values the checkers would have consulted.
func (g *claimGen) candidates(t *claims.GroundTruth, relIdx, keyIdx int) CandidateLists {
	cand := CandidateLists{
		Relations: append([]string(nil), t.Relations...),
		Keys:      append([]string(nil), t.Keys...),
		Attrs:     append([]string(nil), t.Attrs...),
		Formulas:  []string{t.Formula},
	}
	rs := g.rels[relIdx]
	// Sibling relations: same family/region, other scenarios; same
	// family/scenario, neighbouring regions.
	for i := 0; i < g.cfg.CandidateBreadth; i++ {
		var sib relSpec
		if i%2 == 0 {
			sc := (rs.scenario + 1 + g.rng.Intn(max(g.cfg.Scenarios-1, 1))) % max(g.cfg.Scenarios, 1)
			sib = g.findRel(rs.family, rs.region, sc)
		} else {
			rg := (rs.region + 1 + g.rng.Intn(max(g.cfg.Regions-1, 1))) % max(g.cfg.Regions, 1)
			sib = g.findRel(rs.family, rg, rs.scenario)
		}
		if sib.name != "" && sib.name != rs.name {
			cand.Relations = append(cand.Relations, sib.name)
		}
	}
	// Sibling keys: same fuel, other sectors (drawn from the same
	// relation's rows when possible).
	for i := 0; i < g.cfg.CandidateBreadth && len(rs.keyIdx) > 1; i++ {
		ki := rs.keyIdx[g.rng.Intn(len(rs.keyIdx))]
		if g.keys[ki].code != g.keys[keyIdx].code {
			cand.Keys = append(cand.Keys, g.keys[ki].code)
		}
	}
	// Neighbouring years.
	for _, a := range t.Attrs {
		if y, err := strconv.Atoi(a); err == nil {
			for d := -1; d <= 1; d += 2 {
				n := strconv.Itoa(y + d)
				if n >= g.years[0] && n <= g.years[len(g.years)-1] {
					cand.Attrs = append(cand.Attrs, n)
				}
			}
		}
	}
	// Alternative formulas a checker might have used.
	for i := 0; i < 2; i++ {
		alt := g.vocab[zipfPick(g.rng, len(g.vocab), 1.25)].text
		if alt != t.Formula {
			cand.Formulas = append(cand.Formulas, alt)
		}
	}
	return dedupeLists(cand)
}

func (g *claimGen) findRel(family, region, scenario int) relSpec {
	name := code(familyNames[family]) + "_" + code(regionNames[region]) + "_" + code(scenarioNames[scenario])
	for _, r := range g.rels {
		if r.name == name {
			return r
		}
	}
	return relSpec{}
}

func dedupeLists(c CandidateLists) CandidateLists {
	return CandidateLists{
		Relations: dedupe(c.Relations),
		Keys:      dedupe(c.Keys),
		Attrs:     dedupe(c.Attrs),
		Formulas:  dedupe(c.Formulas),
	}
}

func dedupe(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	out := ss[:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// yearGap returns |a-b| for numeric year labels, or 0 when either label is
// not numeric.
func yearGap(a, b string) int {
	ya, errA := strconv.Atoi(a)
	yb, errB := strconv.Atoi(b)
	if errA != nil || errB != nil {
		return 0
	}
	if ya > yb {
		return ya - yb
	}
	return yb - ya
}

func signOf(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

func round3(v float64) float64 {
	if v == 0 {
		return 0
	}
	mag := math.Pow(10, math.Floor(math.Log10(math.Abs(v)))-2)
	return math.Round(v/mag) * mag
}

// formatQty renders a quantity with thin digit grouping ("22 209"), the way
// the IEA report writes large numbers.
func formatQty(v float64) string {
	neg := v < 0
	v = math.Abs(v)
	whole := int64(v)
	frac := v - float64(whole)
	s := strconv.FormatInt(whole, 10)
	var grouped strings.Builder
	for i, d := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			grouped.WriteByte(' ')
		}
		grouped.WriteRune(d)
	}
	out := grouped.String()
	if frac > 1e-9 {
		fs := strconv.FormatFloat(frac, 'f', 2, 64)
		out += fs[1:] // drop leading 0
	}
	if neg {
		out = "-" + out
	}
	return out
}
