// Compilation of expression trees into flat postfix programs.
//
// Compile lowers a tree once into a Program: opcode + operand slices with
// constants, cell slots, numeric attribute-variable slots and function
// pointers all resolved at compile time. Evaluation is then a single pass
// over the opcode slice on a caller-owned stack — no interface dispatch, no
// map look-ups, no allocations — which is what tentative execution needs:
// it evaluates the same formula for thousands of candidate variable
// assignments. The package's tests keep a tree-walking interpreter as the
// reference the compiled programs are pinned against.
//
// A Program stays symbolic about *what* its inputs are: cell slots carry
// (alias slot, attribute label) and numeric slots carry attribute-variable
// names. Binding those slots to concrete corpus cells is the caller's job
// (package query binds them against a table.Index); Eval just reads the
// bound values from the cellVals / attrNums slices. The split is what lets
// the query generator re-bind one compiled program to thousands of integer
// slot tuples.
package expr

import (
	"errors"
	"fmt"
	"math"
)

type opcode uint8

const (
	opConst opcode = iota // push consts[a]
	opCell                // push cellVals[a]
	opAttr                // push attrNums[a]
	opAdd
	opSub
	opMul
	opDiv
	opPow
	opGT
	opLT
	opGE
	opLE
	opEQ
	opNE
	opNeg
	opCall // call fns[a] with b args popped off the stack
)

// instr is one postfix instruction.
type instr struct {
	op   opcode
	a, b int32
}

// CellSlot identifies one distinct cell reference of a compiled program:
// the interned alias slot plus the attribute exactly as written — either a
// concrete label ("2017") or an attribute-variable name ("A1"). Binding the
// slot to a corpus cell (including resolving the attribute variable) is the
// caller's job.
type CellSlot struct {
	Alias int32
	Attr  string
}

// Program is a compiled expression: flat postfix code over pre-resolved
// operand tables. Programs are immutable and safe for concurrent Eval with
// distinct stacks.
type Program struct {
	code     []instr
	consts   []float64
	cells    []CellSlot
	aliases  []string
	numVars  []string
	fns      []function
	fnNames  []string
	maxStack int
}

// ErrDivisionByZero is returned by Eval when a divisor is zero; a sentinel
// so the hot path never formats.
var ErrDivisionByZero = errors.New("expr: division by zero")

// Compile lowers an expression tree into a Program. It fails on unknown
// operators, unknown functions and arity mismatches, which no evaluation
// could get past.
func Compile(n Node) (*Program, error) {
	if n == nil {
		return nil, fmt.Errorf("expr: compiling nil expression")
	}
	p := &Program{}
	aliasSlot := map[string]int32{}
	cellSlot := map[CellSlot]int32{}
	numSlot := map[string]int32{}
	depth, maxDepth := 0, 0
	push := func(in instr, delta int) {
		p.code = append(p.code, in)
		depth += delta
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	var emit func(Node) error
	emit = func(n Node) error {
		switch t := n.(type) {
		case Num:
			idx := int32(-1)
			for i, c := range p.consts {
				if math.Float64bits(c) == math.Float64bits(t.Value) {
					idx = int32(i)
					break
				}
			}
			if idx < 0 {
				idx = int32(len(p.consts))
				p.consts = append(p.consts, t.Value)
			}
			push(instr{op: opConst, a: idx}, 1)
		case CellRef:
			as, ok := aliasSlot[t.Alias]
			if !ok {
				as = int32(len(p.aliases))
				aliasSlot[t.Alias] = as
				p.aliases = append(p.aliases, t.Alias)
			}
			slot := CellSlot{Alias: as, Attr: t.Attr}
			cs, ok := cellSlot[slot]
			if !ok {
				cs = int32(len(p.cells))
				cellSlot[slot] = cs
				p.cells = append(p.cells, slot)
			}
			push(instr{op: opCell, a: cs}, 1)
		case AttrVar:
			ns, ok := numSlot[t.Name]
			if !ok {
				ns = int32(len(p.numVars))
				numSlot[t.Name] = ns
				p.numVars = append(p.numVars, t.Name)
			}
			push(instr{op: opAttr, a: ns}, 1)
		case BinOp:
			var op opcode
			switch t.Op {
			case "+":
				op = opAdd
			case "-":
				op = opSub
			case "*":
				op = opMul
			case "/":
				op = opDiv
			case "^":
				op = opPow
			case ">":
				op = opGT
			case "<":
				op = opLT
			case ">=":
				op = opGE
			case "<=":
				op = opLE
			case "=":
				op = opEQ
			case "!=":
				op = opNE
			default:
				return fmt.Errorf("expr: unknown operator %q", t.Op)
			}
			if err := emit(t.Left); err != nil {
				return err
			}
			if err := emit(t.Right); err != nil {
				return err
			}
			push(instr{op: op}, -1)
		case Neg:
			if err := emit(t.Operand); err != nil {
				return err
			}
			push(instr{op: opNeg}, 0)
		case Call:
			fn, ok := functions[t.Fn]
			if !ok {
				return fmt.Errorf("expr: unknown function %q", t.Fn)
			}
			if err := CheckArity(t.Fn, len(t.Args)); err != nil {
				return err
			}
			for _, a := range t.Args {
				if err := emit(a); err != nil {
					return err
				}
			}
			fi := int32(len(p.fns))
			p.fns = append(p.fns, fn)
			p.fnNames = append(p.fnNames, t.Fn)
			push(instr{op: opCall, a: fi, b: int32(len(t.Args))}, -(len(t.Args) - 1))
		default:
			return fmt.Errorf("expr: cannot compile node %T", n)
		}
		return nil
	}
	if err := emit(n); err != nil {
		return nil, err
	}
	p.maxStack = maxDepth
	return p, nil
}

// Aliases returns the binding aliases referenced by the program, in
// first-appearance order (same order as the tree's Aliases). The caller
// must not mutate the returned slice.
func (p *Program) Aliases() []string { return p.aliases }

// Cells returns the distinct cell slots of the program, in first-appearance
// order; cellVals passed to Eval align with this slice. The caller must not
// mutate it.
func (p *Program) Cells() []CellSlot { return p.cells }

// NumVars returns the attribute-variable names used as numbers, in
// first-appearance order; attrNums passed to Eval align with this slice.
// The caller must not mutate it.
func (p *Program) NumVars() []string { return p.numVars }

// MaxStack is the stack size Eval needs.
func (p *Program) MaxStack() int { return p.maxStack }

// Eval runs the program. cellVals holds the bound value of every cell slot
// (aligned with Cells), attrNums the numeric value of every attribute
// variable used as a number (aligned with NumVars), and stack is the
// caller-owned evaluation stack of at least MaxStack length. Eval performs
// no allocations on the success path; it fails on division by zero
// (ErrDivisionByZero) and on function domain errors.
func (p *Program) Eval(cellVals, attrNums, stack []float64) (float64, error) {
	sp := 0
	for _, in := range p.code {
		switch in.op {
		case opConst:
			stack[sp] = p.consts[in.a]
			sp++
		case opCell:
			stack[sp] = cellVals[in.a]
			sp++
		case opAttr:
			stack[sp] = attrNums[in.a]
			sp++
		case opAdd:
			sp--
			stack[sp-1] += stack[sp]
		case opSub:
			sp--
			stack[sp-1] -= stack[sp]
		case opMul:
			sp--
			stack[sp-1] *= stack[sp]
		case opDiv:
			sp--
			if stack[sp] == 0 {
				return 0, ErrDivisionByZero
			}
			stack[sp-1] /= stack[sp]
		case opPow:
			sp--
			stack[sp-1] = math.Pow(stack[sp-1], stack[sp])
		case opGT:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] > stack[sp])
		case opLT:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] < stack[sp])
		case opGE:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] >= stack[sp])
		case opLE:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] <= stack[sp])
		case opEQ:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] == stack[sp])
		case opNE:
			sp--
			stack[sp-1] = boolVal(stack[sp-1] != stack[sp])
		case opNeg:
			stack[sp-1] = -stack[sp-1]
		case opCall:
			n := int(in.b)
			sp -= n - 1
			v, err := p.fns[in.a].impl(stack[sp-1 : sp-1+n])
			if err != nil {
				return 0, err
			}
			stack[sp-1] = v
		}
	}
	return stack[0], nil
}
