package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/table"
)

// planFor compiles q's SELECT into a Plan over c and resolves q's slots
// to coordinates once, as the query generator does per candidate.
func planFor(tb testing.TB, c *table.Corpus, q *Query) (*Plan, []table.CellCoord, []float64) {
	tb.Helper()
	prog, err := expr.Compile(q.Select)
	if err != nil {
		tb.Fatal(err)
	}
	plan := &Plan{Prog: prog, Idx: c.Index()}
	coords := make([]table.CellCoord, len(prog.Cells()))
	attrNums := make([]float64, len(prog.NumVars()))
	if !q.resolveSlots(prog, plan.Idx, coords, attrNums) {
		tb.Fatalf("cannot resolve %s", q.SQL())
	}
	return plan, coords, attrNums
}

func TestPlanExecCoordsMatchesExecute(t *testing.T) {
	c := corpusWithGED(t)
	q := benchQuery()
	want, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	plan, coords, attrNums := planFor(t, c, q)
	sc := plan.GetScratch()
	defer PutScratch(sc)
	for i := 0; i < 3; i++ {
		got, err := plan.ExecCoords(coords, attrNums, sc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ExecCoords = %v, Execute = %v", got, want)
		}
	}

	// A coordinate that addresses a NULL cell fails with the sentinel.
	sparse := table.MustNewRelation("Sparse", "Index", []string{"2016", "2017"})
	if err := sparse.AddSparseRow("k", map[string]float64{"2016": 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(sparse); err != nil {
		t.Fatal(err)
	}
	nullQ := &Query{Select: expr.MustParse("a.2017"), Bindings: []Binding{{Alias: "a", Relation: "Sparse", Key: "k"}}}
	plan, coords, attrNums = planFor(t, c, nullQ)
	sc2 := plan.GetScratch()
	defer PutScratch(sc2)
	if _, err := plan.ExecCoords(coords, attrNums, sc2); err != ErrCellNotFound {
		t.Fatalf("ExecCoords over a NULL cell: err = %v, want ErrCellNotFound", err)
	}
}

// TestPlanBindErrors pins the plan's binding rule: an alias without a
// binding fails validation, and resolveSlots refuses a missing relation, a
// missing key, an unbound attribute variable and a non-numeric one, while
// accepting a fully resolvable binding.
func TestPlanBindErrors(t *testing.T) {
	c := corpusWithGED(t)
	idx := c.Index()
	resolves := func(q *Query) bool {
		t.Helper()
		if err := q.Validate(); err != nil {
			return false
		}
		prog, err := expr.Compile(q.Select)
		if err != nil {
			t.Fatal(err)
		}
		coords := make([]table.CellCoord, len(prog.Cells()))
		attrNums := make([]float64, len(prog.NumVars()))
		return q.resolveSlots(prog, idx, coords, attrNums)
	}
	sel := expr.MustParse("a.2017")
	cases := []struct {
		name     string
		bindings []Binding
	}{
		{"missing alias", nil},
		{"missing relation", []Binding{{Alias: "a", Relation: "Nope", Key: "k"}}},
		{"missing key", []Binding{{Alias: "a", Relation: "GED", Key: "Nope"}}},
	}
	for _, tc := range cases {
		if resolves(&Query{Select: sel, Bindings: tc.bindings}) {
			t.Errorf("%s: binding resolved", tc.name)
		}
	}
	// Unresolvable attribute variable (numeric) and non-numeric label.
	sel2 := expr.MustParse("a.A1 + (A1 - A2)")
	good := []Binding{{Alias: "a", Relation: "GED", Key: "PGElecDemand"}}
	if resolves(&Query{Select: sel2, Bindings: good, AttrBindings: map[string]string{"A1": "2017"}}) {
		t.Error("unbound A2 accepted")
	}
	if resolves(&Query{Select: sel2, Bindings: good, AttrBindings: map[string]string{"A1": "2017", "A2": "Total"}}) {
		t.Error("non-numeric A2 accepted")
	}
	if !resolves(&Query{Select: sel2, Bindings: good, AttrBindings: map[string]string{"A1": "2017", "A2": "2016"}}) {
		t.Error("valid binding rejected")
	}
}

// referenceExecute is the oracle Execute is pinned against. It resolves
// every cell through the string-keyed Corpus.Get, which does not use the
// interned Index, and every numeric attribute variable through
// AttrBindings, substitutes the values into the expression as expr.Num
// constants, and evaluates the closed expression. Lookup faults come
// before attribute-variable faults, and both before arithmetic. The
// arithmetic is pinned by package expr's tests, against its tree-walking
// interpreter. validation reports an error of Validate, which Execute
// returns as is; Execute wraps every other error.
func referenceExecute(q *Query, c *table.Corpus) (v float64, validation bool, err error) {
	if err := q.Validate(); err != nil {
		return 0, true, err
	}
	var lookupErr, attrErr error
	var closeOver func(expr.Node) expr.Node
	closeOver = func(n expr.Node) expr.Node {
		switch t := n.(type) {
		case expr.CellRef:
			attr := t.Attr
			if label, ok := q.AttrBindings[attr]; ok {
				attr = label
			}
			b := q.binding(t.Alias)
			v, err := c.Get(b.Relation, b.Key, attr)
			if err != nil && lookupErr == nil {
				lookupErr = fmt.Errorf("expr: resolving %s.%s: %w", t.Alias, attr, err)
			}
			return expr.Num{Value: v}
		case expr.AttrVar:
			label := q.AttrBindings[t.Name]
			v, err := strconv.ParseFloat(label, 64)
			if err != nil && attrErr == nil {
				attrErr = fmt.Errorf("expr: attribute %q of variable %s is not numeric", label, t.Name)
			}
			return expr.Num{Value: v}
		case expr.BinOp:
			return expr.BinOp{Op: t.Op, Left: closeOver(t.Left), Right: closeOver(t.Right)}
		case expr.Neg:
			return expr.Neg{Operand: closeOver(t.Operand)}
		case expr.Call:
			args := make([]expr.Node, len(t.Args))
			for i, a := range t.Args {
				args[i] = closeOver(a)
			}
			return expr.Call{Fn: t.Fn, Args: args}
		}
		return n
	}
	closed := closeOver(q.Select)
	if lookupErr != nil {
		return 0, false, lookupErr
	}
	if attrErr != nil {
		return 0, false, attrErr
	}
	prog, err := expr.Compile(closed)
	if err != nil {
		return 0, false, err
	}
	v, err = prog.Eval(nil, nil, make([]float64, prog.MaxStack()))
	return v, false, err
}

// TestExecuteCompiledMatchesInterpreterRandom property-tests Execute
// against referenceExecute over randomized queries on a randomized corpus:
// same values bit-for-bit and the same error text, including NULL cells,
// missing relations and rows, attribute-variable resolution, division by
// zero and function domain errors.
func TestExecuteCompiledMatchesInterpreterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := table.NewCorpus()
	attrs := []string{"2015", "2016", "2017", "Total"}
	for r := 0; r < 3; r++ {
		rel := table.MustNewRelation("R"+strconv.Itoa(r), "Index", attrs)
		for k := 0; k < 4; k++ {
			vals := map[string]float64{}
			for _, a := range attrs {
				if rng.Intn(5) > 0 { // leave some cells NULL
					vals[a] = math.Trunc(rng.Float64()*200-50) / 2
				}
			}
			if err := rel.AddSparseRow("K"+strconv.Itoa(k), vals); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	exprs := []string{
		"a.A1",
		"a.A1 / b.A2",
		"POWER(a.A1/b.A2, 1/(A1-A2)) - 1",
		"a.2017 - b.Total",
		"SQRT(a.A1) + LOG(b.A2)",
		"MAX(a.A1, b.A2) > MIN(a.A1, b.A2)",
		"CAGR(a.A1, b.A2, A1 - A2)",
		"a.Total * -1",
	}
	keys := []string{"K0", "K1", "K2", "K3", "KMissing"}
	rels := []string{"R0", "R1", "R2", "RMissing"}
	var okCount, lookupFaults, arithFaults int
	for trial := 0; trial < 4000; trial++ {
		q := &Query{
			Select: expr.MustParse(exprs[rng.Intn(len(exprs))]),
			Bindings: []Binding{
				{Alias: "a", Relation: rels[rng.Intn(len(rels))], Key: keys[rng.Intn(len(keys))]},
				{Alias: "b", Relation: rels[rng.Intn(len(rels))], Key: keys[rng.Intn(len(keys))]},
			},
			AttrBindings: map[string]string{
				"A1": attrs[rng.Intn(len(attrs))],
				"A2": attrs[rng.Intn(len(attrs))],
			},
		}
		if rng.Intn(10) == 0 {
			delete(q.AttrBindings, "A2") // unbound attribute variable path
		}
		gv, gerr := q.Execute(c)
		wv, validation, werr := referenceExecute(q, c)
		switch {
		case werr == nil && gerr == nil:
			okCount++
			if math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("%s: Execute=%v reference=%v", q.SQL(), gv, wv)
			}
		case werr == nil || gerr == nil:
			t.Fatalf("%s: Execute err=%v, reference err=%v", q.SQL(), gerr, werr)
		default:
			want := werr.Error()
			if !validation {
				want = "query: executing " + q.SQL() + ": " + want
			}
			if gerr.Error() != want {
				t.Fatalf("Execute error %q, reference %q", gerr, want)
			}
			if errors.Is(gerr, table.ErrNotFound) != errors.Is(werr, table.ErrNotFound) {
				t.Fatalf("%s: Execute err %v and reference err %v disagree on table.ErrNotFound", q.SQL(), gerr, werr)
			}
			if errors.Is(werr, table.ErrNotFound) {
				lookupFaults++
			} else if !validation {
				arithFaults++
			}
		}
	}
	// The randomized inputs must reach every branch, or the comparison
	// proves little.
	if okCount == 0 || lookupFaults == 0 || arithFaults == 0 {
		t.Fatalf("coverage: %d successes, %d lookup faults, %d other execution faults", okCount, lookupFaults, arithFaults)
	}
}

// BenchmarkPlanExecute measures the query generator's per-candidate path:
// one compiled plan, pre-resolved coordinates, pooled scratch.
func BenchmarkPlanExecute(b *testing.B) {
	c := benchCorpus(b)
	plan, coords, attrNums := planFor(b, c, benchQuery())
	sc := plan.GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.ExecCoords(coords, attrNums, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteCompiled measures the steady-state Query.Execute path:
// validation, slot resolution through the Index and evaluation of the
// cached program on pooled scratch.
func BenchmarkExecuteCompiled(b *testing.B) {
	c := benchCorpus(b)
	q := benchQuery()
	if _, err := q.Execute(c); err != nil { // compile and cache the program
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Execute(c); err != nil {
			b.Fatal(err)
		}
	}
}
