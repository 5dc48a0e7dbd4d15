package query

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/table"
)

func corpusWithGED(t *testing.T) *table.Corpus {
	t.Helper()
	c := table.NewCorpus()
	r := table.MustNewRelation("GED", "Index", []string{"2000", "2016", "2017"})
	rows := map[string][]float64{
		"PGElecDemand":     {13000, 21546, 22209},
		"CapAddTotal_Wind": {60, 480, 540},
	}
	for k, v := range rows {
		if err := r.AddRow(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(r); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExecuteExample1CAGR(t *testing.T) {
	c := corpusWithGED(t)
	q := &Query{
		Select: expr.MustParse("POWER(a.A1/b.A2, 1/(A1-A2)) - 1"),
		Bindings: []Binding{
			{Alias: "a", Relation: "GED", Key: "PGElecDemand"},
			{Alias: "b", Relation: "GED", Key: "PGElecDemand"},
		},
		AttrBindings: map[string]string{"A1": "2017", "A2": "2016"},
	}
	v, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	want := 22209.0/21546.0 - 1 // ~3.08% growth
	if math.Abs(v-want) > 1e-9 {
		t.Errorf("Execute = %g, want %g", v, want)
	}
	if math.Abs(v-0.03) > 0.005 {
		t.Errorf("growth should be about 3%%, got %g", v)
	}
}

func TestExecuteExample3Ratio(t *testing.T) {
	c := corpusWithGED(t)
	q := &Query{
		Select: expr.MustParse("a.2017 / b.2000"),
		Bindings: []Binding{
			{Alias: "a", Relation: "GED", Key: "CapAddTotal_Wind"},
			{Alias: "b", Relation: "GED", Key: "CapAddTotal_Wind"},
		},
	}
	v, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-9) > 1e-9 {
		t.Errorf("wind nine-fold check = %g, want 9", v)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		q    *Query
		want string
	}{
		{"nil select", &Query{}, "query: nil SELECT expression"},
		{"unbound alias", &Query{Select: expr.MustParse("a.2017")}, `query: alias "a" used in SELECT but not bound`},
		{"incomplete binding", &Query{
			Select:   expr.MustParse("a.2017"),
			Bindings: []Binding{{Alias: "a"}},
		}, "query: incomplete binding"},
		{"duplicate alias", &Query{
			Select: expr.MustParse("a.2017"),
			Bindings: []Binding{
				{Alias: "a", Relation: "R", Key: "k"},
				{Alias: "a", Relation: "S", Key: "k"},
			},
		}, `query: alias "a" bound twice`},
		{"unbound attr var", &Query{
			Select:   expr.MustParse("a.A1"),
			Bindings: []Binding{{Alias: "a", Relation: "R", Key: "k"}},
		}, `query: attribute variable "A1" unbound`},
		{"unbound numeric attr var", &Query{
			Select:       expr.MustParse("a.A1 * (A1 - A2)"),
			Bindings:     []Binding{{Alias: "a", Relation: "R", Key: "k"}},
			AttrBindings: map[string]string{"A1": "2017"},
		}, `query: attribute variable "A2" unbound`},
		{"unbound alias before attr var", &Query{
			Select:   expr.MustParse("a.A1 + b.2017"),
			Bindings: []Binding{{Alias: "a", Relation: "R", Key: "k"}},
		}, `query: alias "b" used in SELECT but not bound`},
	}
	for _, c := range cases {
		err := c.q.Validate()
		if err == nil {
			t.Errorf("%s: Validate succeeded, want error", c.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: Validate = %q, want prefix %q", c.name, err, c.want)
		}
	}
}

// TestExecuteErrors runs one query per execution fault, each with that
// fault alone, and pins what a caller can rely on: the "query: executing "
// prefix with the rendered SQL, table.ErrNotFound for the lookup faults,
// expr.ErrDivisionByZero for division by zero, and the text of the
// function-domain and attribute-variable errors.
func TestExecuteErrors(t *testing.T) {
	c := corpusWithGED(t)
	sparse := table.MustNewRelation("Sparse", "Index", []string{"2016", "2017"})
	if err := sparse.AddSparseRow("k", map[string]float64{"2016": 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(sparse); err != nil {
		t.Fatal(err)
	}
	ged := func(key string) []Binding { return []Binding{{Alias: "a", Relation: "GED", Key: key}} }
	cases := []struct {
		name     string
		sel      string
		bindings []Binding
		attrs    map[string]string
		is       error  // errors.Is target, or nil
		want     string // substring of the error text
	}{
		{"missing relation", "a.2017", []Binding{{Alias: "a", Relation: "NoSuchRel", Key: "k"}}, nil,
			table.ErrNotFound, `expr: resolving a.2017: table: not found: relation "NoSuchRel"`},
		{"missing row", "a.2017", ged("NoSuchKey"), nil,
			table.ErrNotFound, `expr: resolving a.2017: table: not found: row "NoSuchKey" in relation "GED"`},
		{"missing attribute", "a.A1", ged("PGElecDemand"), map[string]string{"A1": "1999"},
			table.ErrNotFound, `expr: resolving a.1999: table: not found: attribute "1999" in relation "GED"`},
		{"NULL cell", "a.2017", []Binding{{Alias: "a", Relation: "Sparse", Key: "k"}}, nil,
			table.ErrNotFound, `expr: resolving a.2017: table: not found: cell ("k", "2017") in relation "Sparse" is NULL`},
		{"non-numeric attribute variable", "a.2017 * (A1 - 2016)", ged("PGElecDemand"), map[string]string{"A1": "Total"},
			nil, `expr: attribute "Total" of variable A1 is not numeric`},
		{"division by zero", "a.2017 / (a.2016 - a.2016)", ged("PGElecDemand"), nil,
			expr.ErrDivisionByZero, "expr: division by zero"},
		{"SQRT domain", "SQRT(a.2016 - a.2017)", ged("PGElecDemand"), nil,
			nil, "expr: SQRT of negative value -663"},
		{"LOG domain", "LOG(a.2016 - a.2016)", ged("PGElecDemand"), nil,
			nil, "expr: LOG of non-positive value 0"},
	}
	for _, tc := range cases {
		q := &Query{Select: expr.MustParse(tc.sel), Bindings: tc.bindings, AttrBindings: tc.attrs}
		for call := 0; call < 2; call++ { // the compiling call and a cached one
			_, err := q.Execute(c)
			if err == nil {
				t.Fatalf("%s: Execute succeeded", tc.name)
			}
			msg := err.Error()
			if prefix := "query: executing " + q.SQL() + ": "; !strings.HasPrefix(msg, prefix) {
				t.Errorf("%s: %q lacks prefix %q", tc.name, msg, prefix)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("%s: %v is not %v", tc.name, err, tc.is)
			}
			if !strings.Contains(msg, tc.want) {
				t.Errorf("%s: %q does not contain %q", tc.name, msg, tc.want)
			}
		}
	}
}

// TestExecuteConcurrentFirstCall: goroutines racing one fresh query's
// first calls may each compile; all must get the same value.
func TestExecuteConcurrentFirstCall(t *testing.T) {
	c := corpusWithGED(t)
	want, err := benchQuery().Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	q := benchQuery()
	var wg sync.WaitGroup
	got := make([]float64, 8)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = q.Execute(c)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("goroutine %d: Execute = %v, %v; want %v", i, got[i], errs[i], want)
		}
	}
}

// TestExecuteAllocatesNothingWarm pins the steady state: once the first
// call has compiled and cached the program, Execute allocates nothing.
func TestExecuteAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	c := corpusWithGED(t)
	q := &Query{
		Select: expr.MustParse("POWER(a.A1/b.A2, 1/(A1-A2)) - 1"),
		Bindings: []Binding{
			{Alias: "a", Relation: "GED", Key: "PGElecDemand"},
			{Alias: "b", Relation: "GED", Key: "CapAddTotal_Wind"},
		},
		AttrBindings: map[string]string{"A1": "2017", "A2": "2016"},
	}
	if _, err := q.Execute(c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := q.Execute(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Execute allocates %v times per call, want 0", allocs)
	}
}

func TestSQLRendering(t *testing.T) {
	q := &Query{
		Select: expr.MustParse("POWER(a.A1/b.A2, 1/(A1-A2)) - 1"),
		Bindings: []Binding{
			{Alias: "a", Relation: "GED", Key: "PGElecDemand"},
			{Alias: "b", Relation: "GED", Key: "PGElecDemand"},
		},
		AttrBindings: map[string]string{"A1": "2017", "A2": "2016"},
	}
	sql := q.SQL()
	for _, want := range []string{
		"SELECT", "FROM GED a, GED b", "WHERE",
		"a.Index = 'PGElecDemand'", "AND b.Index = 'PGElecDemand'",
		"a.2017", "b.2016",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
	// Attribute variables in numeric positions become concrete numbers.
	if strings.Contains(sql, "A1") || strings.Contains(sql, "A2") {
		t.Errorf("SQL %q still contains attribute variables", sql)
	}
	if q.String() != sql {
		t.Error("String should equal SQL")
	}
}

func TestSQLQuotesFunnyIdentifiers(t *testing.T) {
	q := &Query{
		Select:   expr.MustParse("a.2017"),
		Bindings: []Binding{{Alias: "a", Relation: "World Balance", Key: "it's"}},
	}
	sql := q.SQL()
	if !strings.Contains(sql, `"World Balance" a`) {
		t.Errorf("relation not quoted: %q", sql)
	}
	if !strings.Contains(sql, "'it''s'") {
		t.Errorf("key not escaped: %q", sql)
	}
}

func TestParseRoundTrip(t *testing.T) {
	c := corpusWithGED(t)
	orig := &Query{
		Select: expr.MustParse("POWER(a.A1/b.A2, 1/(A1-A2)) - 1"),
		Bindings: []Binding{
			{Alias: "a", Relation: "GED", Key: "PGElecDemand"},
			{Alias: "b", Relation: "GED", Key: "PGElecDemand"},
		},
		AttrBindings: map[string]string{"A1": "2017", "A2": "2016"},
	}
	parsed, err := Parse(orig.SQL())
	if err != nil {
		t.Fatalf("Parse(%q): %v", orig.SQL(), err)
	}
	v1, err := orig.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := parsed.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1-v2) > 1e-12 {
		t.Errorf("round trip changed value: %g vs %g", v1, v2)
	}
}

func TestParseHandWrittenSQL(t *testing.T) {
	c := corpusWithGED(t)
	sql := `select (a.2017 / b.2000)
	        from GED a, GED as b
	        where a.Index = 'CapAddTotal_Wind' and b.Index = 'CapAddTotal_Wind';`
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-9) > 1e-9 {
		t.Errorf("parsed query = %g, want 9", v)
	}
	if len(q.Bindings) != 2 || q.Bindings[1].Relation != "GED" {
		t.Errorf("bindings = %+v", q.Bindings)
	}
}

func TestParseKeywordInsideStringLiteral(t *testing.T) {
	c := table.NewCorpus()
	r := table.MustNewRelation("R", "Index", []string{"2017"})
	if err := r.AddRow("select from where", []float64{42}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(r); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(`SELECT a.2017 FROM R a WHERE a.Index = 'select from where'`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.Execute(c)
	if err != nil || v != 42 {
		t.Errorf("Execute = %g, %v", v, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE x SET y = 1",
		"SELECT 1",                              // no FROM
		"SELECT FROM GED a WHERE a.Index = 'x'", // empty select
		"SELECT a.2017 FROM GED a",              // no WHERE
		"SELECT a.2017 FROM GED a WHERE a.Index = 'x' AND a.Index = 'y'", // two predicates
		"SELECT a.2017 FROM GED a WHERE b.Index = 'x'",                   // unknown alias
		"SELECT a.2017 FROM GED a WHERE a.Index = x",                     // unquoted
		"SELECT a.2017 FROM GED a WHERE a.Index = ''",                    // empty key
		"SELECT a.2017 FROM GED a WHERE a.Index > 'x'",                   // non-equality... (= missing)
		"SELECT a.2017 FROM GED a, GED a WHERE a.Index = 'x'",            // dup alias
		"SELECT a.2017 FROM GED x y z WHERE x.Index = 'k'",               // bad from item
		"SELECT a.++ FROM GED a WHERE a.Index = 'x'",                     // bad expr
		"SELECT a.2017 WHERE a.Index = 'x' FROM GED a",                   // where before from
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestComplexity(t *testing.T) {
	q := &Query{
		Select: expr.MustParse("a.A1 / b.A2"),
		Bindings: []Binding{
			{Alias: "a", Relation: "GED", Key: "x"},
			{Alias: "b", Relation: "GED", Key: "y"},
		},
		AttrBindings: map[string]string{"A1": "2017", "A2": "2016"},
	}
	// expr complexity 3 + 2 bindings = 5
	if got := q.Complexity(); got != 5 {
		t.Errorf("Complexity = %d, want 5", got)
	}
}

func TestBooleanCheckQuery(t *testing.T) {
	// Example 9 style Boolean query: SELECT a.2017 > 100.
	c := corpusWithGED(t)
	q, err := Parse("SELECT a.2017 > 100 FROM GED a WHERE a.Index = 'CapAddTotal_Wind'")
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("Boolean check = %g, want 1", v)
	}
}
