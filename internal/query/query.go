package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/table"
)

// Binding ties an alias in the SELECT expression to a relation and the key
// value selected by the WHERE clause.
type Binding struct {
	Alias    string
	Relation string
	Key      string
}

// Query is one executable statistical check.
type Query struct {
	// Select is the expression computed by the query; its cell
	// references use the aliases of Bindings, with attributes either
	// concrete (a.2017) or attribute variables (a.A1) resolved through
	// AttrBindings.
	Select expr.Node
	// Bindings lists the FROM/WHERE bindings in alias order.
	Bindings []Binding
	// AttrBindings resolves attribute variables (A1 -> "2017"). Empty for
	// fully concrete queries.
	AttrBindings map[string]string

	// prog caches the compiled form of Select, built by the first
	// Execute. Select is treated as immutable once the query executes.
	prog atomic.Pointer[expr.Program]
}

// Validate checks internal consistency: every alias referenced by the SELECT
// expression must be bound exactly once, and every attribute variable must be
// resolvable. It allocates only to report a fault.
func (q *Query) Validate() error {
	if q.Select == nil {
		return fmt.Errorf("query: nil SELECT expression")
	}
	for i, b := range q.Bindings {
		if b.Alias == "" || b.Relation == "" || b.Key == "" {
			return fmt.Errorf("query: incomplete binding %+v", b)
		}
		for _, prev := range q.Bindings[:i] {
			if prev.Alias == b.Alias {
				return fmt.Errorf("query: alias %q bound twice", b.Alias)
			}
		}
	}
	// The first unbound alias and the first unbound attribute variable,
	// in first-appearance order; an unbound alias is reported first.
	var alias, attrVar string
	var aliasBad, attrVarBad bool
	unboundVar := func(name string) bool {
		if !expr.IsAttrVarName(name) {
			return false
		}
		_, ok := q.AttrBindings[name]
		return !ok
	}
	expr.Walk(q.Select, func(n expr.Node) {
		switch t := n.(type) {
		case expr.CellRef:
			if !aliasBad && q.binding(t.Alias) == nil {
				alias, aliasBad = t.Alias, true
			}
			if !attrVarBad && unboundVar(t.Attr) {
				attrVar, attrVarBad = t.Attr, true
			}
		case expr.AttrVar:
			if !attrVarBad && unboundVar(t.Name) {
				attrVar, attrVarBad = t.Name, true
			}
		}
	})
	if aliasBad {
		return fmt.Errorf("query: alias %q used in SELECT but not bound", alias)
	}
	if attrVarBad {
		return fmt.Errorf("query: attribute variable %q unbound", attrVar)
	}
	return nil
}

// binding returns the binding of alias, or nil.
func (q *Query) binding(alias string) *Binding {
	for i := range q.Bindings {
		if q.Bindings[i].Alias == alias {
			return &q.Bindings[i]
		}
	}
	return nil
}

// Execute runs the query against the corpus and returns the value of the
// SELECT expression. It validates the query, compiles Select on the first
// call (the program is cached on the query), resolves the program's slots
// through the corpus's interned Index and evaluates on pooled scratch. It
// allocates nothing once the program is cached, unless it fails.
func (q *Query) Execute(c *table.Corpus) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	prog := q.prog.Load()
	if prog == nil {
		var err error
		if prog, err = expr.Compile(q.Select); err != nil {
			return 0, q.execErr(err)
		}
		q.prog.Store(prog)
	}
	plan := Plan{Prog: prog, Idx: c.Index()}
	sc := plan.GetScratch()
	defer PutScratch(sc)
	if !q.resolveSlots(prog, plan.Idx, sc.Coords, sc.AttrNums) {
		return 0, q.execErr(q.resolveErr(c, prog))
	}
	v, err := plan.ExecCoords(sc.Coords, sc.AttrNums, sc)
	if errors.Is(err, ErrCellNotFound) {
		err = q.resolveErr(c, prog)
	}
	if err != nil {
		return 0, q.execErr(err)
	}
	return v, nil
}

// execErr wraps an execution fault with the query's rendered SQL.
func (q *Query) execErr(err error) error {
	return fmt.Errorf("query: executing %s: %w", q.SQL(), err)
}

// resolveErr explains a failed resolution. It runs on the failure path
// only: it looks every cell up again through the corpus's string-keyed
// Get, in the program's slot order, then parses every numeric attribute
// variable, and returns the first fault. Lookup faults wrap
// table.ErrNotFound.
func (q *Query) resolveErr(c *table.Corpus, prog *expr.Program) error {
	for _, cs := range prog.Cells() {
		alias := prog.Aliases()[cs.Alias]
		attr := cs.Attr
		if label, ok := q.AttrBindings[attr]; ok {
			attr = label
		}
		b := q.binding(alias)
		if _, err := c.Get(b.Relation, b.Key, attr); err != nil {
			return fmt.Errorf("expr: resolving %s.%s: %w", alias, attr, err)
		}
	}
	for _, name := range prog.NumVars() {
		label, ok := q.AttrBindings[name]
		if !ok {
			return fmt.Errorf("expr: unbound attribute variable %s", name)
		}
		if _, err := strconv.ParseFloat(label, 64); err != nil {
			return fmt.Errorf("expr: attribute %q of variable %s is not numeric", label, name)
		}
	}
	return fmt.Errorf("%w: the corpus index and the corpus disagree", ErrCellNotFound)
}

// concreteSelect returns the SELECT expression with attribute variables
// substituted by their concrete labels, for rendering.
func (q *Query) concreteSelect() expr.Node {
	return substituteAttrs(q.Select, q.AttrBindings)
}

func substituteAttrs(n expr.Node, attrs map[string]string) expr.Node {
	switch t := n.(type) {
	case expr.CellRef:
		if concrete, ok := attrs[t.Attr]; ok {
			return expr.CellRef{Alias: t.Alias, Attr: concrete}
		}
		return t
	case expr.AttrVar:
		if concrete, ok := attrs[t.Name]; ok {
			if v, err := strconv.ParseFloat(concrete, 64); err == nil {
				return expr.Num{Value: v}
			}
		}
		return t
	case expr.BinOp:
		return expr.BinOp{Op: t.Op, Left: substituteAttrs(t.Left, attrs), Right: substituteAttrs(t.Right, attrs)}
	case expr.Neg:
		return expr.Neg{Operand: substituteAttrs(t.Operand, attrs)}
	case expr.Call:
		args := make([]expr.Node, len(t.Args))
		for i, a := range t.Args {
			args[i] = substituteAttrs(a, attrs)
		}
		return expr.Call{Fn: t.Fn, Args: args}
	default:
		return n
	}
}

// SQL renders the query as the SQL string of Definition 3, with attribute
// variables made concrete where bindings exist. The rendering is stable and
// parseable by Parse below.
func (q *Query) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Select != nil {
		sb.WriteString(q.concreteSelect().String())
	}
	if len(q.Bindings) > 0 {
		sb.WriteString(" FROM ")
		for i, b := range q.Bindings {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(b.Relation))
			sb.WriteByte(' ')
			sb.WriteString(b.Alias)
		}
		sb.WriteString(" WHERE ")
		for i, b := range q.Bindings {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			fmt.Fprintf(&sb, "%s.Index = '%s'", b.Alias, escapeSQLString(b.Key))
		}
	}
	return sb.String()
}

// String implements fmt.Stringer.
func (q *Query) String() string { return q.SQL() }

// Complexity counts the elements of the query the way the user study does
// for Figure 6: key values, attributes, operations, constants and variables.
func (q *Query) Complexity() int {
	c := expr.Complexity(q.Select)
	c += len(q.Bindings) // one key value each
	return c
}

func quoteIdent(s string) string {
	for _, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return `"` + s + `"`
		}
	}
	return s
}

func escapeSQLString(s string) string {
	return strings.ReplaceAll(s, "'", "''")
}
