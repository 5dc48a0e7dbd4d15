package claims

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindOpStrings(t *testing.T) {
	if Explicit.String() != "explicit" || General.String() != "general" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind should still print")
	}
	ops := map[Op]string{OpEq: "=", OpNeq: "!=", OpLt: "<", OpGt: ">"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("Op %d = %q, want %q", op, op.String(), want)
		}
	}
	if Op(9).String() == "" {
		t.Error("unknown Op should still print")
	}
}

func TestRelClose(t *testing.T) {
	cases := []struct {
		v, p, e float64
		want    bool
	}{
		{100, 100, 0, true},
		{103, 100, 0.05, true},
		{106, 100, 0.05, false},
		{0.03, 0.03, 0.01, true},
		{0, 0, 0.01, true},
		{0.005, 0, 0.01, true}, // absolute fallback near zero
		{0.02, 0, 0.01, false},
		{-103, -100, 0.05, true},
		{math.NaN(), 1, 0.5, false},
		{1, math.NaN(), 0.5, false},
	}
	for _, c := range cases {
		if got := RelClose(c.v, c.p, c.e); got != c.want {
			t.Errorf("RelClose(%g, %g, %g) = %v, want %v", c.v, c.p, c.e, got, c.want)
		}
	}
}

func TestOpCompare(t *testing.T) {
	if !OpEq.Compare(102, 100, 0.05) {
		t.Error("OpEq within tolerance should hold")
	}
	if OpEq.Compare(110, 100, 0.05) {
		t.Error("OpEq outside tolerance should fail")
	}
	if !OpNeq.Compare(110, 100, 0.05) || OpNeq.Compare(102, 100, 0.05) {
		t.Error("OpNeq wrong")
	}
	if !OpLt.Compare(1, 2, 0) || OpLt.Compare(2, 1, 0) {
		t.Error("OpLt wrong")
	}
	if !OpGt.Compare(2, 1, 0) || OpGt.Compare(1, 2, 0) {
		t.Error("OpGt wrong")
	}
	if Op(9).Compare(1, 1, 1) {
		t.Error("unknown op should be false")
	}
}

func TestRelCloseSymmetryProperty(t *testing.T) {
	// RelClose(v, p, 0) iff v == p exactly.
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		return RelClose(v, v, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtractParameterPercent(t *testing.T) {
	cases := []struct {
		text string
		want float64
	}{
		{"In 2017, global electricity demand grew by 3%", 0.03},
		{"demand grew by 2.5%", 0.025},
		{"rose 12 percent year on year", 0.12},
	}
	for _, c := range cases {
		got, ok := ExtractParameter(c.text)
		if !ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ExtractParameter(%q) = %g, %v; want %g", c.text, got, ok, c.want)
		}
	}
}

func TestExtractParameterMultipliers(t *testing.T) {
	cases := []struct {
		text string
		want float64
	}{
		{"increased nine-fold from 2000 to 2017", 9},
		{"grew twofold over the decade", 2},
		{"output doubled since 2010", 2},
		{"capacity tripled", 3},
		{"demand halved", 0.5},
		{"a five fold rise", 5},
	}
	for _, c := range cases {
		got, ok := ExtractParameter(c.text)
		if !ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ExtractParameter(%q) = %g, %v; want %g", c.text, got, ok, c.want)
		}
	}
}

func TestExtractParameterPlainNumbers(t *testing.T) {
	cases := []struct {
		text string
		want float64
	}{
		{"reaching 22 200 TWh", 22200},
		{"reached 1 234 567 units", 1234567},
		{"output was 450 TWh in 2017", 450}, // prefers non-year number
		{"amounted to 3.6 Gt", 3.6},
	}
	for _, c := range cases {
		got, ok := ExtractParameter(c.text)
		if !ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ExtractParameter(%q) = %g, %v; want %g", c.text, got, ok, c.want)
		}
	}
}

func TestExtractParameterYearFallbackAndNone(t *testing.T) {
	// Only a year present: falls back to it.
	got, ok := ExtractParameter("as projected for 2030")
	if !ok || got != 2030 {
		t.Errorf("year fallback = %g, %v", got, ok)
	}
	// Nothing numeric at all.
	if _, ok := ExtractParameter("the solar PV market expanded aggressively"); ok {
		t.Error("no parameter expected")
	}
	if _, ok := ExtractParameter(""); ok {
		t.Error("empty text should have no parameter")
	}
}

func TestExtractParameterPercentBeatsYear(t *testing.T) {
	got, ok := ExtractParameter("In 2017, global electricity demand grew by 3%, reaching 22 200 TWh")
	if !ok || math.Abs(got-0.03) > 1e-12 {
		t.Errorf("want percent 0.03, got %g %v", got, ok)
	}
}

func TestLexiconResolve(t *testing.T) {
	var lex Lexicon
	op, p, ok := lex.Resolve("the solar PV market expanded aggressively.")
	if !ok || op != OpGt || p != 1.0 {
		t.Errorf("aggressively = %v %g %v", op, p, ok)
	}
	op, p, ok = lex.Resolve("grew scarcely in 2018")
	if !ok || op != OpLt {
		t.Errorf("scarcely = %v %g %v", op, p, ok)
	}
	if _, _, ok := lex.Resolve("grew by 3%"); ok {
		t.Error("no vague quantifier expected")
	}
}

func TestLexiconOverride(t *testing.T) {
	var lex Lexicon
	lex.Override("aggressively", OpGt, 0.30)
	op, p, ok := lex.Resolve("expanded Aggressively")
	if !ok || op != OpGt || p != 0.30 {
		t.Errorf("override = %v %g %v", op, p, ok)
	}
	words := lex.Words()
	if len(words) < 10 {
		t.Errorf("Words too small: %v", words)
	}
}

func TestClaimComplexity(t *testing.T) {
	c := &Claim{Truth: &GroundTruth{
		Keys:    []string{"PGElecDemand", "PGElecDemand"},
		Attrs:   []string{"2016", "2017"},
		Formula: "a.A1 / b.A2",
	}}
	// 2 keys + 2 attrs + formula elements(a.A1, /, b.A2 = 3) = 7;
	// a cell reference is a single variable element.
	if got := c.Complexity(); got != 7 {
		t.Errorf("Complexity = %d, want 7", got)
	}
	if (&Claim{}).Complexity() != 0 {
		t.Error("no truth -> complexity 0")
	}
}

func TestDocumentValidateAndSections(t *testing.T) {
	d := &Document{
		Title:    "T",
		Sections: 2,
		Claims: []*Claim{
			{ID: 1, Section: 0},
			{ID: 2, Section: 1},
			{ID: 3, Section: 1},
		},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.ClaimsInSection(1); len(got) != 2 {
		t.Errorf("ClaimsInSection(1) = %d claims", len(got))
	}
	d.Claims = append(d.Claims, &Claim{ID: 1, Section: 0})
	if err := d.Validate(); err == nil {
		t.Error("duplicate ID accepted")
	}
	d.Claims = []*Claim{{ID: 9, Section: 5}}
	if err := d.Validate(); err == nil {
		t.Error("out-of-range section accepted")
	}
	d.Claims = []*Claim{nil}
	if err := d.Validate(); err == nil {
		t.Error("nil claim accepted")
	}
}

func TestUnannotated(t *testing.T) {
	truth := &GroundTruth{Relations: []string{"GED"}, Keys: []string{"PGElecDemand"},
		Attrs: []string{"2017"}, Formula: "a.A1", Value: 22209}
	d := &Document{
		Title:    "T",
		Sections: 2,
		Claims: []*Claim{
			{ID: 1, Text: "demand grew by 3%", Sentence: "In 2017, demand grew by 3%.", Section: 0,
				Kind: Explicit, Param: 0.03, HasParam: true, Truth: truth, Correct: true},
			{ID: 2, Text: "demand was flat", Section: 1, Kind: General, Cmp: OpGt},
		},
	}
	orig := make([]Claim, len(d.Claims))
	for i, c := range d.Claims {
		orig[i] = *c
	}

	u := d.Unannotated()
	if u == d || u.Title != d.Title || u.Sections != d.Sections || len(u.Claims) != len(d.Claims) {
		t.Fatalf("Unannotated() = %+v, want a copy of %+v", u, d)
	}
	for i, c := range u.Claims {
		if c == d.Claims[i] {
			t.Fatalf("claim %d shares its pointer with the input", i)
		}
		if c.Truth != nil {
			t.Errorf("claim %d keeps its annotation", c.ID)
		}
		want := orig[i]
		want.Truth = nil
		if *c != want {
			t.Errorf("claim %d = %+v, want %+v", c.ID, *c, want)
		}
		// The input is untouched, annotation included.
		if *d.Claims[i] != orig[i] {
			t.Errorf("input claim %d mutated: %+v, was %+v", c.ID, *d.Claims[i], orig[i])
		}
	}
	if d.Claims[0].Truth != truth {
		t.Error("input claim lost its annotation")
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}
