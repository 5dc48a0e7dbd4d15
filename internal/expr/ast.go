// Package expr implements the arithmetic expression language used in the
// SELECT clause of statistical-check queries (paper Definition 3) and in the
// generalised formulas of Section 4.2, e.g.
//
//	POWER(a.A1/b.A2, 1/(A1-A2)) - 1
//
// Terms of the language:
//
//   - numeric constants: 9, 0.025, 1e3
//   - cell references: a.A1 — binding alias "a", attribute variable "A1";
//     after instantiation the attribute may be concrete, e.g. a.2017
//   - attribute variables used as numbers: A1 - A2 (year arithmetic)
//   - binary operators: + - * / ^ and comparisons > < >= <= = != yielding
//     0 or 1 (used by Boolean checks, Example 9)
//   - unary minus
//   - function calls over a library F: POWER, ABS, SQRT, LOG, LN, EXP,
//     MIN, MAX, SUM, AVG, ROUND, SIGN, CAGR
//
// Expressions are evaluated by compiling them (Compile) into flat programs
// that run over bound cell values; see compile.go.
package expr

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Node is an expression tree node. Implementations are immutable. The
// interface is closed: only this package's node types implement it.
type Node interface {
	// String renders the node in the surface syntax accepted by Parse.
	String() string
	node()
}

func (Num) node()     {}
func (CellRef) node() {}
func (AttrVar) node() {}
func (BinOp) node()   {}
func (Neg) node()     {}
func (Call) node()    {}

// Num is a numeric literal.
type Num struct{ Value float64 }

func (n Num) String() string {
	return strconv.FormatFloat(n.Value, 'g', -1, 64)
}

// CellRef references a cell through a binding alias and an attribute, e.g.
// a.A1 (attribute variable) or a.2017 (concrete attribute).
type CellRef struct {
	Alias string
	Attr  string
}

func (c CellRef) String() string {
	if plainAttr(c.Attr) {
		return c.Alias + "." + c.Attr
	}
	// Attributes that are neither numbers nor identifiers (e.g. 2024Q4,
	// "Total Final") render quoted so the output re-parses.
	return c.Alias + `."` + c.Attr + `"`
}

// plainAttr reports whether an attribute label can render unquoted: either
// a pure number or an identifier.
func plainAttr(s string) bool {
	if s == "" {
		return false
	}
	digits := true
	for _, r := range s {
		if r < '0' || r > '9' {
			digits = false
			break
		}
	}
	if digits {
		return true
	}
	if !isIdentStart(rune(s[0])) {
		return false
	}
	for _, r := range s {
		if !isIdentPart(r) {
			return false
		}
	}
	return true
}

// AttrVar is an attribute variable used as a number, e.g. the A1-A2 term in
// the CAGR exponent. At evaluation the variable resolves to its concrete
// attribute label, which must parse as a number (years do).
type AttrVar struct{ Name string }

func (a AttrVar) String() string { return a.Name }

// BinOp applies a binary operator.
type BinOp struct {
	Op          string // + - * / ^ > < >= <= = !=
	Left, Right Node
}

func (b BinOp) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Neg is unary minus.
type Neg struct{ Operand Node }

func (n Neg) String() string { return "-" + n.Operand.String() }

// Call invokes a function from the library F.
type Call struct {
	Fn   string
	Args []Node
}

func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

type function struct {
	arity int // -1 means variadic (>=1)
	impl  func([]float64) (float64, error)
}

// functions is the library F of Definition 3. CAGR is the compound annual
// growth rate the paper singles out: CAGR(end, start, years).
var functions = map[string]function{
	"POWER": {2, func(a []float64) (float64, error) {
		v := math.Pow(a[0], a[1])
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("expr: POWER(%g, %g) is not finite", a[0], a[1])
		}
		return v, nil
	}},
	"ABS": {1, func(a []float64) (float64, error) { return math.Abs(a[0]), nil }},
	"SQRT": {1, func(a []float64) (float64, error) {
		if a[0] < 0 {
			return 0, fmt.Errorf("expr: SQRT of negative value %g", a[0])
		}
		return math.Sqrt(a[0]), nil
	}},
	"LOG": {1, func(a []float64) (float64, error) {
		if a[0] <= 0 {
			return 0, fmt.Errorf("expr: LOG of non-positive value %g", a[0])
		}
		return math.Log10(a[0]), nil
	}},
	"LN": {1, func(a []float64) (float64, error) {
		if a[0] <= 0 {
			return 0, fmt.Errorf("expr: LN of non-positive value %g", a[0])
		}
		return math.Log(a[0]), nil
	}},
	"EXP":   {1, func(a []float64) (float64, error) { return math.Exp(a[0]), nil }},
	"ROUND": {1, func(a []float64) (float64, error) { return math.Round(a[0]), nil }},
	"SIGN": {1, func(a []float64) (float64, error) {
		switch {
		case a[0] > 0:
			return 1, nil
		case a[0] < 0:
			return -1, nil
		}
		return 0, nil
	}},
	"MIN": {-1, func(a []float64) (float64, error) {
		m := a[0]
		for _, v := range a[1:] {
			if v < m {
				m = v
			}
		}
		return m, nil
	}},
	"MAX": {-1, func(a []float64) (float64, error) {
		m := a[0]
		for _, v := range a[1:] {
			if v > m {
				m = v
			}
		}
		return m, nil
	}},
	"SUM": {-1, func(a []float64) (float64, error) {
		var s float64
		for _, v := range a {
			s += v
		}
		return s, nil
	}},
	"AVG": {-1, func(a []float64) (float64, error) {
		var s float64
		for _, v := range a {
			s += v
		}
		return s / float64(len(a)), nil
	}},
	// CAGR(end, start, years) = (end/start)^(1/years) - 1
	"CAGR": {3, func(a []float64) (float64, error) {
		if a[1] == 0 {
			return 0, fmt.Errorf("expr: CAGR with zero start value")
		}
		if a[2] == 0 {
			return 0, fmt.Errorf("expr: CAGR over zero years")
		}
		v := math.Pow(a[0]/a[1], 1/a[2]) - 1
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("expr: CAGR(%g, %g, %g) is not finite", a[0], a[1], a[2])
		}
		return v, nil
	}},
}

// CheckArity validates that calling fn with n arguments is well-formed.
func CheckArity(fn string, n int) error {
	f, ok := functions[fn]
	if !ok {
		return fmt.Errorf("expr: unknown function %q", fn)
	}
	if f.arity >= 0 && n != f.arity {
		return fmt.Errorf("expr: %s expects %d arguments, got %d", fn, f.arity, n)
	}
	if f.arity < 0 && n < 1 {
		return fmt.Errorf("expr: %s expects at least one argument", fn)
	}
	return nil
}

// Functions returns the names of the function library F, sorted.
func Functions() []string {
	out := make([]string, 0, len(functions))
	for f := range functions {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// IsFunction reports whether name is in the library F.
func IsFunction(name string) bool {
	_, ok := functions[strings.ToUpper(name)]
	return ok
}

// Walk visits every node of the tree in depth-first order, calling fn for
// each; analysis helpers (variable collection, complexity) build on it.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	switch t := n.(type) {
	case BinOp:
		Walk(t.Left, fn)
		Walk(t.Right, fn)
	case Neg:
		Walk(t.Operand, fn)
	case Call:
		for _, a := range t.Args {
			Walk(a, fn)
		}
	}
}

// Aliases returns the distinct binding aliases referenced by the expression,
// in first-appearance order (a, b, c, ... for canonical formulas).
func Aliases(n Node) []string {
	var out []string
	seen := map[string]bool{}
	Walk(n, func(m Node) {
		if c, ok := m.(CellRef); ok && !seen[c.Alias] {
			seen[c.Alias] = true
			out = append(out, c.Alias)
		}
	})
	return out
}

// AttrVars returns the distinct attribute variables referenced by the
// expression (both in cell references and as numeric AttrVar terms), in
// first-appearance order.
func AttrVars(n Node) []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if IsAttrVarName(name) && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	Walk(n, func(m Node) {
		switch t := m.(type) {
		case CellRef:
			add(t.Attr)
		case AttrVar:
			add(t.Name)
		}
	})
	return out
}

// IsAttrVarName reports whether s has the shape of an attribute variable:
// "A" followed by digits (A1, A2, ...).
func IsAttrVarName(s string) bool {
	if len(s) < 2 || s[0] != 'A' {
		return false
	}
	for _, r := range s[1:] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Complexity counts the elements of the expression the way the user study
// does for Figure 6: operations, functions, constants and variables each
// count one.
func Complexity(n Node) int {
	c := 0
	Walk(n, func(m Node) {
		switch m.(type) {
		case Num, CellRef, AttrVar, BinOp, Neg, Call:
			c++
		}
	})
	return c
}

// Equal reports structural equality of two expressions.
func Equal(a, b Node) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}
