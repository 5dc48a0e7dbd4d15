package core

import (
	"fmt"
	"testing"

	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// TestPaperLibraryCompiles pins why query generation has no interpreted
// fallback: every formula of a paper-scale training library compiles into
// a program binding the aliases the executor enumerates, and so does the
// generalization of each truth query, which is the label an accepted query
// feeds back into the library.
func TestPaperLibraryCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale training in -short mode")
	}
	e, w := buildEngine(t, worldgen.PaperScale())
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	lib := e.Library()
	if lib.Len() == 0 {
		t.Fatal("training left the library empty")
	}
	compiles := func(what string, f *formula.Formula) {
		t.Helper()
		prog := e.compiledProgram(f.String(), f.Expr)
		if prog == nil {
			_, err := expr.Compile(f.Expr)
			t.Fatalf("%s %q does not compile: %v", what, f, err)
		}
		if got, want := len(prog.Aliases()), len(e.formulaAliases(f)); got != want {
			t.Fatalf("%s %q: program binds %d aliases, executor enumerates %d", what, f, got, want)
		}
	}
	for _, key := range lib.Keys() {
		f, _ := lib.Get(key)
		compiles("library formula", f)
	}
	// The whole vocabulary the world draws claims from, used or not.
	for _, src := range w.FormulaVocab {
		f, err := e.parseFormula(src)
		if err != nil {
			t.Fatalf("vocabulary formula %q: %v", src, err)
		}
		compiles("vocabulary formula", f)
	}
	for _, c := range w.Document.Claims {
		q, err := e.TruthQuery(c)
		if err != nil {
			t.Fatalf("claim %d: %v", c.ID, err)
		}
		g, _, err := formula.Generalize(q.Select)
		if err != nil {
			t.Fatalf("claim %d: %v", c.ID, err)
		}
		compiles(fmt.Sprintf("claim %d's generalized truth query", c.ID), g)
	}
}
