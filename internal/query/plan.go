package query

import (
	"errors"
	"strconv"
	"sync"

	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/table"
)

// A Plan is the compiled execution form of a SELECT expression against one
// interned corpus snapshot: the expression is lowered once to a flat
// expr.Program, and all name resolution (aliases → relations, attribute
// labels → columns) happens outside the evaluation loop.
//
// Query.Execute builds one per call for a single fixed query. The query
// generator builds one per formula and executes it under many variable
// assignments — tentative execution — so compilation happens once and each
// candidate assignment costs only integer cell resolution plus a stack
// evaluation (ExecCoords).
type Plan struct {
	// Prog is the compiled SELECT program.
	Prog *expr.Program
	// Idx is the interned corpus snapshot the plan binds against.
	Idx *table.Index
}

// Scratch is the caller-owned evaluation scratch of a plan: one per
// goroutine, reused across executions. Get one from the package pool via
// GetScratch/PutScratch, which size it for the plan's program.
type Scratch struct {
	CellVals []float64
	AttrNums []float64
	Stack    []float64
	// Coords is spare per-candidate coordinate space for enumeration
	// loops; ExecCoords does not touch it.
	Coords []table.CellCoord
}

func (s *Scratch) grow(prog *expr.Program) {
	if n := len(prog.Cells()); cap(s.CellVals) < n {
		s.CellVals = make([]float64, n)
	} else {
		s.CellVals = s.CellVals[:n]
	}
	if n := len(prog.NumVars()); cap(s.AttrNums) < n {
		s.AttrNums = make([]float64, n)
	} else {
		s.AttrNums = s.AttrNums[:n]
	}
	if n := prog.MaxStack(); cap(s.Stack) < n {
		s.Stack = make([]float64, n)
	} else {
		s.Stack = s.Stack[:n]
	}
	if cap(s.Coords) < len(prog.Cells()) {
		s.Coords = make([]table.CellCoord, len(prog.Cells()))
	} else {
		s.Coords = s.Coords[:len(prog.Cells())]
	}
}

// scratchPool recycles evaluation scratch across executions; Execute's
// steady state allocates nothing.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch borrows a pooled scratch sized for the plan.
func (p *Plan) GetScratch() *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.grow(p.Prog)
	return s
}

// PutScratch returns a scratch to the pool.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// ErrCellNotFound is ExecCoords' error for a coordinate that addresses a
// NULL cell. The hot path never formats; Query.Execute explains the fault
// on its failure path.
var ErrCellNotFound = errors.New("query: cell not found")

// resolveSlots is Query.Execute's name-resolution rule: alias slots bind
// to interned (relation, row) pairs, cell attributes resolve through
// AttrBindings with the literal label as fallback to interned columns, and
// numeric attribute variables parse their bound label. Results land in the
// caller-owned coords/attrNums (sized per the program); the return value
// is false when anything is unresolvable. The query must have passed
// Validate. It does not allocate for queries of up to 8 aliases.
func (q *Query) resolveSlots(prog *expr.Program, idx *table.Index, coords []table.CellCoord, attrNums []float64) bool {
	aliases := prog.Aliases()
	type relRow struct{ rel, row int32 }
	var boundArr [8]relRow
	var bound []relRow
	if len(aliases) <= len(boundArr) {
		bound = boundArr[:len(aliases)]
	} else {
		bound = make([]relRow, len(aliases))
	}
	for i, alias := range aliases {
		bd := q.binding(alias)
		rel, ok := idx.RelID(bd.Relation)
		if !ok {
			return false
		}
		row, ok := idx.RowID(rel, bd.Key)
		if !ok {
			return false
		}
		bound[i] = relRow{rel, row}
	}
	for i, cs := range prog.Cells() {
		label := cs.Attr
		if resolved, ok := q.AttrBindings[label]; ok {
			label = resolved
		}
		rr := bound[cs.Alias]
		col, ok := idx.ColID(rr.rel, label)
		if !ok {
			return false
		}
		coords[i] = table.CellCoord{Rel: rr.rel, Row: rr.row, Col: col}
	}
	for i, name := range prog.NumVars() {
		v, err := strconv.ParseFloat(q.AttrBindings[name], 64)
		if err != nil {
			return false
		}
		attrNums[i] = v
	}
	return true
}

// ExecCoords evaluates the plan for one fully resolved candidate
// assignment: coords[i] addresses the program's i-th cell slot and
// attrNums aligns with the program's NumVars. This is the tentative-
// execution hot path — the query generator enumerates integer slot tuples,
// resolves them to coordinates with precomputed tables, and calls this in
// a tight loop with a pooled scratch.
func (p *Plan) ExecCoords(coords []table.CellCoord, attrNums []float64, sc *Scratch) (float64, error) {
	idx := p.Idx
	for i, cc := range coords {
		v, ok := idx.Cell(cc.Rel, cc.Row, cc.Col)
		if !ok {
			return 0, ErrCellNotFound
		}
		sc.CellVals[i] = v
	}
	return p.Prog.Eval(sc.CellVals, attrNums, sc.Stack)
}
