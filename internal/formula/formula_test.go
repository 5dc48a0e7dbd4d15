package formula

import (
	"math"
	"strings"
	"testing"

	"github.com/repro/scrutinizer/internal/expr"
)

func TestGeneralizeExample8(t *testing.T) {
	// SELECT POWER(a.2017/b.2016, 1/(2017-2016)) - 1 generalises to
	// POWER(a.A1/b.A2, 1/(A1-A2)) - 1.
	concrete := expr.MustParse("POWER(a.2017/b.2016, 1/(2017-2016)) - 1")
	f, reverse, err := Generalize(concrete)
	if err != nil {
		t.Fatal(err)
	}
	want := "(POWER((a.A1 / b.A2), (1 / (A1 - A2))) - 1)"
	if f.String() != want {
		t.Errorf("Generalize = %q, want %q", f.String(), want)
	}
	if f.NumBindings != 2 {
		t.Errorf("NumBindings = %d, want 2", f.NumBindings)
	}
	if len(f.AttrVars) != 2 || f.AttrVars[0] != "A1" || f.AttrVars[1] != "A2" {
		t.Errorf("AttrVars = %v", f.AttrVars)
	}
	if reverse["A1"] != "2017" || reverse["A2"] != "2016" {
		t.Errorf("reverse map = %v", reverse)
	}
}

func TestGeneralizeCanonicalisesAliases(t *testing.T) {
	// Odd aliases x, q become a, b in first-appearance order.
	concrete := expr.MustParse("x.2017 / q.2000")
	f, _, err := Generalize(concrete)
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "(a.A1 / b.A2)" {
		t.Errorf("Generalize = %q", f.String())
	}
}

func TestGeneralizeSharedLabelSharesVariable(t *testing.T) {
	// The same attribute label in two references maps to one variable.
	concrete := expr.MustParse("a.2017 - b.2017")
	f, _, err := Generalize(concrete)
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "(a.A1 - b.A1)" {
		t.Errorf("Generalize = %q", f.String())
	}
}

func TestGeneralizePreservesConstants(t *testing.T) {
	// Constants that are not attribute labels stay constants.
	concrete := expr.MustParse("a.2017 * 100 + 0.5")
	f, _, err := Generalize(concrete)
	if err != nil {
		t.Fatal(err)
	}
	s := f.String()
	if !strings.Contains(s, "100") || !strings.Contains(s, "0.5") {
		t.Errorf("constants lost: %q", s)
	}
}

func TestGeneralizeNilAndIdempotent(t *testing.T) {
	if _, _, err := Generalize(nil); err == nil {
		t.Error("nil should error")
	}
	f1, _, err := Generalize(expr.MustParse("a.2017 / b.2016"))
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := Generalize(f1.Expr)
	if err != nil {
		t.Fatal(err)
	}
	if f1.String() != f2.String() {
		t.Errorf("not idempotent: %q vs %q", f1.String(), f2.String())
	}
}

func TestParseFormula(t *testing.T) {
	f, err := ParseFormula("POWER(a.A1/b.A2, 1/(A1-A2)) - 1")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBindings != 2 || len(f.AttrVars) != 2 {
		t.Errorf("shape = %d bindings, %v attrs", f.NumBindings, f.AttrVars)
	}
	if _, err := ParseFormula("(((("); err == nil {
		t.Error("bad formula accepted")
	}
	if (&Formula{}).String() != "" {
		t.Error("empty formula should stringify empty")
	}
	var nilF *Formula
	if nilF.String() != "" {
		t.Error("nil formula should stringify empty")
	}
}

func TestInstantiateValidates(t *testing.T) {
	f := MustParseFormula("a.A1 / b.A2")
	_, err := f.Instantiate(Instantiation{
		Cells: []CellAssignment{{Alias: "a", Relation: "R", Key: "k"}},
		Attrs: map[string]string{"A1": "2017", "A2": "2016"},
	})
	if err == nil {
		t.Error("missing alias b accepted")
	}
	_, err = f.Instantiate(Instantiation{
		Cells: []CellAssignment{
			{Alias: "a", Relation: "R", Key: "k"},
			{Alias: "b", Relation: "R", Key: "k"},
		},
		Attrs: map[string]string{"A1": "2017"},
	})
	if err == nil {
		t.Error("missing attr var accepted")
	}
	node, err := f.Instantiate(Instantiation{
		Cells: []CellAssignment{
			{Alias: "a", Relation: "R", Key: "k"},
			{Alias: "b", Relation: "R", Key: "k"},
		},
		Attrs: map[string]string{"A1": "2017", "A2": "2016"},
	})
	if err != nil || node == nil {
		t.Errorf("valid instantiation rejected: %v", err)
	}
	var nilF *Formula
	if _, err := nilF.Instantiate(Instantiation{}); err == nil {
		t.Error("nil formula instantiation accepted")
	}
}

func TestReconstructChain(t *testing.T) {
	// growth = a.2017 / b.2016; root = step.growth - 1.
	defs := map[string]expr.Node{
		"growth": expr.MustParse("a.2017 / b.2016"),
	}
	root := expr.MustParse("step.growth - 1")
	resolved, err := Reconstruct(root, defs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := expr.Compile(resolved)
	if err != nil {
		t.Fatal(err)
	}
	if cs := prog.Cells(); len(cs) != 2 || cs[0].Attr != "2017" || cs[1].Attr != "2016" {
		t.Fatalf("cell slots %+v, want a.2017 then b.2016", cs)
	}
	v, err := prog.Eval([]float64{22, 20}, nil, make([]float64, prog.MaxStack()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.1) > 1e-12 {
		t.Errorf("Reconstruct eval = %g, want 0.1", v)
	}
}

func TestReconstructNested(t *testing.T) {
	defs := map[string]expr.Node{
		"ratio":  expr.MustParse("a.2017 / b.2000"),
		"growth": expr.MustParse("step.ratio - 1"),
	}
	root := expr.MustParse("ABS(step.growth)")
	resolved, err := Reconstruct(root, defs)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resolved.String(), "step.") {
		t.Errorf("unresolved reference remains: %q", resolved.String())
	}
}

func TestReconstructErrors(t *testing.T) {
	if _, err := Reconstruct(expr.MustParse("step.nope"), nil); err == nil {
		t.Error("undefined step accepted")
	}
	defs := map[string]expr.Node{
		"x": expr.MustParse("step.y + 1"),
		"y": expr.MustParse("step.x + 1"),
	}
	if _, err := Reconstruct(expr.MustParse("step.x"), defs); err == nil {
		t.Error("cyclic definition accepted")
	}
	// Self-cycle.
	defs = map[string]expr.Node{"x": expr.MustParse("step.x")}
	if _, err := Reconstruct(expr.MustParse("step.x"), defs); err == nil {
		t.Error("self cycle accepted")
	}
}

func TestReconstructThenGeneralize(t *testing.T) {
	// End-to-end: annotation chain -> reconstruction -> formula.
	defs := map[string]expr.Node{
		"cagr": expr.MustParse("POWER(a.2017/b.2016, 1/(2017-2016)) - 1"),
	}
	resolved, err := Reconstruct(expr.MustParse("step.cagr"), defs)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := Generalize(resolved)
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "(POWER((a.A1 / b.A2), (1 / (A1 - A2))) - 1)" {
		t.Errorf("pipeline = %q", f.String())
	}
}

func TestLibraryDedupAndCounts(t *testing.T) {
	l := NewLibrary()
	k1, err := l.AddString("a.A1 / b.A2")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := l.AddString("a.A1 / b.A2")
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("same formula different keys: %q %q", k1, k2)
	}
	if _, err := l.AddString("a.A1 - b.A2"); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
	if l.Count(k1) != 2 {
		t.Errorf("Count = %d, want 2", l.Count(k1))
	}
	if _, ok := l.Get(k1); !ok {
		t.Error("Get should find formula")
	}
	if _, ok := l.Get("nope"); ok {
		t.Error("Get found a missing key")
	}
	if _, err := l.AddString("(((("); err == nil {
		t.Error("bad formula accepted")
	}
	counts := l.Counts()
	if len(counts) != 2 {
		t.Errorf("Counts = %v", counts)
	}
	var total float64
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Errorf("total occurrences = %g, want 3", total)
	}
}

func TestLibraryTopK(t *testing.T) {
	l := NewLibrary()
	for i := 0; i < 5; i++ {
		if _, err := l.AddString("a.A1 / b.A2"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := l.AddString("a.A1 - b.A2"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AddString("a.A1 + 1"); err != nil {
		t.Fatal(err)
	}
	top := l.TopK(2)
	if len(top) != 2 || top[0] != "(a.A1 / b.A2)" {
		t.Errorf("TopK = %v", top)
	}
	if got := l.TopK(99); len(got) != 3 {
		t.Errorf("TopK(99) = %v", got)
	}
	if l.Keys()[0] != "(a.A1 / b.A2)" {
		t.Errorf("Keys order = %v", l.Keys())
	}
}

func TestGeneralizeBooleanCheck(t *testing.T) {
	// Example 9 Boolean query SELECT d.y > 100 generalises with the
	// comparison preserved.
	f, _, err := Generalize(expr.MustParse("d.2017 > 100"))
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "(a.A1 > 100)" {
		t.Errorf("Generalize = %q", f.String())
	}
}
