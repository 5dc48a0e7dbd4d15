package expr

// The tree-walking interpreter: the reference evaluator the compiled
// Program is pinned against (TestCompileEquivalenceProperty,
// FuzzCompileVsInterpret). It resolves every name through an Env at
// evaluation time and reports the first failure in evaluation order.

import (
	"fmt"
	"math"
	"strconv"
)

// Env resolves the free names of an expression during evaluation.
type Env interface {
	// Cell resolves a reference alias.attr, where attr is either an
	// attribute variable (A1, A2, ...) resolved through Attr, or a
	// concrete attribute label.
	Cell(alias, attr string) (float64, error)
	// Attr resolves an attribute variable to its concrete label
	// (e.g. A1 -> "2017"). Returns "" and false if unbound.
	Attr(v string) (string, bool)
}

// evaluator is implemented by every node type below.
type evaluator interface {
	eval(env Env) (float64, error)
}

func (n Num) eval(Env) (float64, error) { return n.Value, nil }

func (c CellRef) eval(env Env) (float64, error) {
	attr := c.Attr
	if resolved, ok := env.Attr(c.Attr); ok {
		attr = resolved
	}
	v, err := env.Cell(c.Alias, attr)
	if err != nil {
		return 0, fmt.Errorf("expr: resolving %s.%s: %w", c.Alias, attr, err)
	}
	return v, nil
}

func (a AttrVar) eval(env Env) (float64, error) {
	label, ok := env.Attr(a.Name)
	if !ok {
		return 0, fmt.Errorf("expr: unbound attribute variable %s", a.Name)
	}
	v, err := strconv.ParseFloat(label, 64)
	if err != nil {
		return 0, fmt.Errorf("expr: attribute %q of variable %s is not numeric", label, a.Name)
	}
	return v, nil
}

func (b BinOp) eval(env Env) (float64, error) {
	l, err := Eval(b.Left, env)
	if err != nil {
		return 0, err
	}
	r, err := Eval(b.Right, env)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return 0, fmt.Errorf("expr: division by zero in %s", b)
		}
		return l / r, nil
	case "^":
		return math.Pow(l, r), nil
	case ">":
		return boolVal(l > r), nil
	case "<":
		return boolVal(l < r), nil
	case ">=":
		return boolVal(l >= r), nil
	case "<=":
		return boolVal(l <= r), nil
	case "=":
		return boolVal(l == r), nil
	case "!=":
		return boolVal(l != r), nil
	}
	return 0, fmt.Errorf("expr: unknown operator %q", b.Op)
}

func (n Neg) eval(env Env) (float64, error) {
	v, err := Eval(n.Operand, env)
	if err != nil {
		return 0, err
	}
	return -v, nil
}

func (c Call) eval(env Env) (float64, error) {
	fn, ok := functions[c.Fn]
	if !ok {
		return 0, fmt.Errorf("expr: unknown function %q", c.Fn)
	}
	if fn.arity >= 0 && len(c.Args) != fn.arity {
		return 0, fmt.Errorf("expr: %s expects %d arguments, got %d", c.Fn, fn.arity, len(c.Args))
	}
	if fn.arity < 0 && len(c.Args) < 1 {
		return 0, fmt.Errorf("expr: %s expects at least one argument", c.Fn)
	}
	args := make([]float64, len(c.Args))
	for i, a := range c.Args {
		v, err := Eval(a, env)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	return fn.impl(args)
}

// Eval evaluates the expression under env. Errors carry enough context to be
// surfaced to fact checkers in the verification report.
func Eval(n Node, env Env) (float64, error) {
	if n == nil {
		return 0, fmt.Errorf("expr: nil expression")
	}
	return n.(evaluator).eval(env)
}

// MapEnv is an Env backed by maps.
type MapEnv struct {
	Cells map[string]float64 // key "alias.attr"
	Attrs map[string]string  // attribute variable -> concrete label
}

// Cell implements Env.
func (m MapEnv) Cell(alias, attr string) (float64, error) {
	v, ok := m.Cells[alias+"."+attr]
	if !ok {
		return 0, fmt.Errorf("no cell %s.%s", alias, attr)
	}
	return v, nil
}

// Attr implements Env.
func (m MapEnv) Attr(v string) (string, bool) {
	s, ok := m.Attrs[v]
	return s, ok
}
