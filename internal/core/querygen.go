package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/query"
	"github.com/repro/scrutinizer/internal/table"
)

// Context is the crowd-validated query context (Algorithm 2 input): the
// relations, key values and attribute labels that the correct query draws
// from. "The algorithm assumes that the input information for relations,
// key values and attributes are correct as these come from the crowd
// validation."
type Context struct {
	Relations []string
	Keys      []string
	Attrs     []string
}

// GeneratedQuery is one output of query generation: an executable query and
// its tentative-execution value.
type GeneratedQuery struct {
	Query   *query.Query
	Value   float64
	Formula string
}

// GenerateQueries implements Algorithm 2. Given the validated context, a
// ranked formula list, and the claim parameter p (explicit claims), it
// enumerates variable assignments per formula, executes them tentatively,
// and splits the results into solutions S (value ≈ p within tolerance) and
// alternates SA (everything else, kept as correction suggestions and as the
// candidate set for general claims).
//
// The implementation is the compiled hot path of the engine: each formula
// is lowered once to a flat expr program, assignments are enumerated as
// integer slot tuples — (relation, row) pair indexes per binding alias,
// context-attribute indexes per attribute variable — over the corpus's
// interned table.Index, and tentative execution runs query plans on pooled
// scratch with no string handling at all. Results are deduplicated by
// canonical (formula, slot-tuple) key rather than rendered SQL, and Query
// values (whose SQL renders lazily) are materialised only for the
// candidates that survive dedupe, ranking and truncation. Successful
// enumerations are memoized per corpus generation in the engine's
// QueryCache, so repeated screens and concurrent sessions over one corpus
// never recompute the same cell math.
//
// ctx bounds the enumeration: assignment loops poll it every
// enumCheckEvery candidates and abort with a wrapped ctx.Err(). A
// cancelled (partial) enumeration is never written to the QueryCache — a
// later caller must not be served an incomplete entry as complete. The
// only error GenerateQueries returns is cancellation.
func (e *Engine) GenerateQueries(ctx context.Context, qc Context, formulas []*formula.Formula, p float64, hasParam bool) (solutions, alternates []GeneratedQuery, err error) {
	// Entry checkpoint: small enumerations can finish in fewer than
	// enumCheckEvery steps without ever polling, but a dead context must
	// still stop them before any cell math runs.
	if err := checkCancel(ctx); err != nil {
		return nil, nil, err
	}
	gs := getGenScratch()
	defer putGenScratch(gs)

	gen := e.corpus.Generation()
	env := newGenEnv(e.corpus.Index(), qc)
	var prefetched map[string]*tentEntry
	if e.cfg.FormulaParallelism > 1 {
		if prefetched, err = e.prefetchFormulas(ctx, env, gen, formulas); err != nil {
			return nil, nil, err
		}
	}
	budget := e.cfg.MaxAssignments
	for _, f := range formulas {
		if f == nil || f.Expr == nil {
			continue
		}
		fkey := e.formulaKey(f)
		fid := gs.fid(fkey, f)
		if gs.formAliases[fid] == nil {
			gs.formAliases[fid] = e.formulaAliases(f)
		}
		used, err := e.generateForFormula(ctx, gs, env, gen, prefetched, f, fid, fkey, p, hasParam, budget)
		if err != nil {
			return nil, nil, err
		}
		budget -= used
		if budget <= 0 {
			break
		}
	}
	// Deduplicate by canonical (formula, slots) key and rank: solutions by
	// |value - p|, alternates by closeness to the parameter (most plausible
	// corrections first). Slot-key dedupe removes the mass of duplicates
	// without rendering anything; materialization then applies the exact
	// legacy rendered-SQL dedupe over the few survivors it walks (distinct
	// formulas can still collide on SQL), so truncation never wastes an
	// alternate slot on a duplicate. Stable sort keeps equal-value
	// duplicates in enumeration order, which makes the late SQL dedupe
	// pick the same winners the pre-rewrite dedupe-then-sort did.
	sols := gs.dedupe(gs.sols)
	alts := gs.dedupe(gs.alts)
	if hasParam {
		sort.SliceStable(sols, func(i, j int) bool {
			return math.Abs(sols[i].value-p) < math.Abs(sols[j].value-p)
		})
		sort.SliceStable(alts, func(i, j int) bool {
			return math.Abs(alts[i].value-p) < math.Abs(alts[j].value-p)
		})
	}
	return gs.materialize(env, sols, len(sols)), gs.materialize(env, alts, e.cfg.MaxAlternates), nil
}

// prefetchFormulas enumerates one claim's cache-missing formulas
// concurrently, each at the full assignment budget, before the sequential
// serve pass of GenerateQueries. An entry enumerated at the full budget
// serves any smaller remaining budget with exact legacy accounting
// (tentEntry.served), so the serve pass produces bit-identical output —
// the fan-out only changes when (and on which goroutine) the enumeration
// work happens. Pinned by the FormulaParallelism equivalence test.
//
// It returns the keys it filled, each mapped to the entry the cache held
// before (nil when none): the serve pass counts its lookup of such a key
// against that prior entry, so hit and miss figures are the ones a
// sequential serve pass would have produced. The prefetch itself counts
// nothing.
func (e *Engine) prefetchFormulas(ctx context.Context, env *genEnv, gen uint64, formulas []*formula.Formula) (map[string]*tentEntry, error) {
	if len(env.ctx.Relations) == 0 || len(env.ctx.Keys) == 0 || len(env.pairs) == 0 {
		return nil, nil
	}
	budget := e.cfg.MaxAssignments
	var miss []*formula.Formula
	var missKeys []string
	var priors []*tentEntry
	seen := make(map[string]bool, len(formulas))
	for _, f := range formulas {
		if f == nil || f.Expr == nil {
			continue
		}
		if len(f.AttrVars) > 0 && len(env.ctx.Attrs) == 0 {
			continue
		}
		key := tentKey(e.formulaKey(f), env.ctx)
		if seen[key] {
			continue
		}
		seen[key] = true
		prior := e.qcache.entry(e.corpus, gen, key)
		if prior != nil && prior.usable(budget) {
			continue
		}
		miss = append(miss, f)
		missKeys = append(missKeys, key)
		priors = append(priors, prior)
	}
	if len(miss) < 2 {
		return nil, nil // a lone miss gains nothing from a worker hand-off
	}
	// env's execution tables build lazily and are not goroutine-safe;
	// resolve them once here so the workers only read env.
	env.ensureExec()
	cancelled := make([]bool, len(miss))
	runPool(len(miss), e.cfg.FormulaParallelism, func(i int) {
		wgs := getGenScratch()
		entry := e.enumerate(ctx, wgs, env, miss[i], e.formulaKey(miss[i]), budget)
		putGenScratch(wgs)
		if entry == nil {
			cancelled[i] = true // partial enumeration: never cache it
			return
		}
		e.qcache.put(e.corpus, gen, missKeys[i], entry)
	})
	filled := make(map[string]*tentEntry, len(miss))
	for i, c := range cancelled {
		if c {
			return nil, checkCancel(ctx)
		}
		filled[missKeys[i]] = priors[i]
	}
	return filled, nil
}

// generateForFormula runs (or serves from cache) the tentative execution of
// one formula under an assignment budget, appending candidate records to
// the scratch; it returns the assignments tried, with the same accounting
// as the pre-compilation enumeration loop. A cancelled enumeration returns
// an error without caching the partial entry. prefetched is
// prefetchFormulas' result (nil without a prefetch); the first lookup of a
// key in it is consumed and counted against the prior entry.
func (e *Engine) generateForFormula(ctx context.Context, gs *genScratch, env *genEnv, gen uint64, prefetched map[string]*tentEntry, f *formula.Formula, fid int32, fkey string, p float64, hasParam bool, budget int) (used int, err error) {
	if len(env.ctx.Relations) == 0 || len(env.ctx.Keys) == 0 {
		return 0, nil
	}
	if len(f.AttrVars) > 0 && len(env.ctx.Attrs) == 0 {
		return 0, nil
	}
	if len(env.pairs) == 0 {
		return 0, nil
	}
	key := tentKey(fkey, env.ctx)
	var entry *tentEntry
	if prior, ok := prefetched[key]; ok {
		delete(prefetched, key)
		e.qcache.count(prior != nil && prior.usable(budget))
		if entry = e.qcache.entry(e.corpus, gen, key); entry != nil && !entry.usable(budget) {
			entry = nil // evicted and replaced meanwhile: enumerate below
		}
	} else {
		entry, _ = e.qcache.get(e.corpus, gen, key, budget)
	}
	if entry == nil {
		entry = e.enumerate(ctx, gs, env, f, fkey, budget)
		if entry == nil {
			return 0, checkCancel(ctx)
		}
		e.qcache.put(e.corpus, gen, key, entry)
	}
	var n int
	n, used = entry.served(budget)
	tol := e.cfg.Tolerance
	for i := 0; i < n; i++ {
		rec := candRec{
			fid:   fid,
			value: entry.values[i],
			off:   int32(len(gs.slots)),
			n:     int32(entry.stride),
		}
		gs.slots = append(gs.slots, entry.slots[i*entry.stride:(i+1)*entry.stride]...)
		if hasParam && claims.RelClose(rec.value, p, tol) {
			gs.sols = append(gs.sols, rec)
		} else {
			gs.alts = append(gs.alts, rec)
		}
	}
	return used, nil
}

// enumerate visits the assignment space of one formula in the canonical
// order — an odometer over (relation, key) pairs per alias, last alias
// fastest, with every attribute assignment tried per pair tuple — and
// records the successful executions as canonical slot tuples. Execution is
// compiled (plan over the interned index). Every formula that reaches here
// was parsed, and the parser refuses whatever the compiler would reject, so
// an uncompilable formula is malformed input: it yields no candidates.
//
// ctx is polled every enumCheckEvery assignments; on cancellation the
// partial entry is discarded and enumerate returns nil (callers must not
// cache or serve it). The poll is gated on ctx.Done() != nil, so
// Background-context callers pay nothing in the odometer loop.
func (e *Engine) enumerate(ctx context.Context, gs *genScratch, env *genEnv, f *formula.Formula, fkey string, budget int) *tentEntry {
	attrVars := f.AttrVars
	aliases := e.formulaAliases(f)
	attrAssigns := injectiveIdx(len(env.ctx.Attrs), len(attrVars))
	if len(attrAssigns) == 0 && len(attrVars) > 0 {
		attrAssigns = repeatedIdx(len(env.ctx.Attrs), len(attrVars))
	}
	if len(attrVars) == 0 {
		attrAssigns = [][]int32{nil}
	}

	t := &tentEntry{stride: len(aliases) + len(attrVars)}
	exec, release := e.compiledExecutor(env, f, fkey, aliases)
	if exec == nil {
		t.complete = true
		return t
	}
	defer release()

	if cap(gs.pairTuple) < len(aliases) {
		gs.pairTuple = make([]int32, len(aliases))
	}
	pt := gs.pairTuple[:len(aliases)]
	for i := range pt {
		pt[i] = 0
	}
	done := ctx.Done()
	used := 0
	for {
		for _, aa := range attrAssigns {
			used++
			if used > budget {
				t.explored = used - 1
				return t
			}
			if done != nil && used%enumCheckEvery == 0 {
				select {
				case <-done:
					return nil
				default:
				}
			}
			if v, ok := exec(pt, aa); ok {
				t.attempts = append(t.attempts, int32(used))
				for _, pi := range pt {
					t.slots = append(t.slots, env.pairCanon[pi])
				}
				for _, ai := range aa {
					t.slots = append(t.slots, env.attrCanon[ai])
				}
				t.values = append(t.values, v)
			}
		}
		carry := len(pt) - 1
		for carry >= 0 {
			pt[carry]++
			if int(pt[carry]) < len(env.pairs) {
				break
			}
			pt[carry] = 0
			carry--
		}
		if carry < 0 {
			break
		}
	}
	t.explored = used
	t.complete = true
	return t
}

// compiledExecutor builds the integer-slot executor for a formula: all
// names (columns, numeric attribute labels) are resolved to IDs or parsed
// before the loop, so each candidate costs coordinate assembly plus one
// program evaluation. Returns a nil executor when the expression does not
// compile; otherwise the release function returns the pooled scratch.
func (e *Engine) compiledExecutor(env *genEnv, f *formula.Formula, fkey string, aliases []string) (exec func(pt, aa []int32) (float64, bool), release func()) {
	prog := e.compiledProgram(fkey, f.Expr)
	if prog == nil || len(prog.Aliases()) != len(aliases) {
		return nil, nil
	}
	env.ensureExec()
	varPos := func(name string) int32 {
		for i, v := range f.AttrVars {
			if v == name {
				return int32(i)
			}
		}
		return -1
	}
	cells := prog.Cells()
	cellAlias := make([]int32, len(cells))
	cellVar := make([]int32, len(cells))  // attr-variable position or -1
	cellConc := make([]int32, len(cells)) // concrete-label index or -1
	var concLabels []string
	for ci, cs := range cells {
		cellAlias[ci] = cs.Alias
		cellVar[ci] = varPos(cs.Attr)
		cellConc[ci] = -1
		if cellVar[ci] < 0 {
			idx := int32(-1)
			for i, l := range concLabels {
				if l == cs.Attr {
					idx = int32(i)
					break
				}
			}
			if idx < 0 {
				idx = int32(len(concLabels))
				concLabels = append(concLabels, cs.Attr)
			}
			cellConc[ci] = idx
		}
	}
	// Column IDs of concrete labels per (pair, label); -1 when absent.
	colConc := make([]int32, len(env.pairs)*len(concLabels))
	for pi := range env.pairs {
		for li, label := range concLabels {
			colConc[pi*len(concLabels)+li] = -1
			if col, ok := env.idx.ColID(env.pairs[pi].rel, label); ok {
				colConc[pi*len(concLabels)+li] = col
			}
		}
	}
	// Numeric attribute-variable slots; a variable outside the formula's
	// assignment (malformed input) can never evaluate, as Query.Execute
	// fails on an unbound variable.
	numPos := make([]int32, len(prog.NumVars()))
	alwaysFail := false
	for i, name := range prog.NumVars() {
		numPos[i] = varPos(name)
		if numPos[i] < 0 {
			alwaysFail = true
		}
	}

	plan := &query.Plan{Prog: prog, Idx: env.idx}
	sc := plan.GetScratch()
	nAttrs := len(env.ctx.Attrs)
	return func(pt, aa []int32) (float64, bool) {
		if alwaysFail {
			return 0, false
		}
		coords := sc.Coords
		for ci := range cellAlias {
			pi := pt[cellAlias[ci]]
			pr := &env.pairs[pi]
			var col int32
			if vp := cellVar[ci]; vp >= 0 {
				col = env.colCtx[int(pi)*nAttrs+int(aa[vp])]
			} else {
				col = colConc[int(pi)*len(concLabels)+int(cellConc[ci])]
			}
			if col < 0 {
				return 0, false
			}
			coords[ci] = table.CellCoord{Rel: pr.rel, Row: pr.row, Col: col}
		}
		for i, vp := range numPos {
			ai := aa[vp]
			if !env.attrNumOK[ai] {
				return 0, false
			}
			sc.AttrNums[i] = env.attrNum[ai]
		}
		v, err := plan.ExecCoords(coords, sc.AttrNums, sc)
		return v, err == nil
	}, func() { query.PutScratch(sc) }
}

// genPair is one (relation, key) candidate for an alias binding, with both
// the interned coordinates used by execution and the names used when a
// surviving candidate materialises.
type genPair struct {
	rel, row     int32
	relName, key string
}

// genEnv is the per-call resolution of a validated context against the
// interned corpus: the alias candidate pairs in enumeration order, the
// per-(pair, context-attribute) column table, parsed numeric attribute
// labels, and the canonicalisation maps that make slot tuples comparable
// across duplicate context entries.
type genEnv struct {
	idx   *table.Index
	ctx   Context
	pairs []genPair
	// pairCanon / attrCanon map enumeration indexes to the first index
	// carrying the same value, so the dedupe key of two assignments that
	// differ only through duplicated context entries coincides (matching
	// the old rendered-SQL dedupe).
	pairCanon []int32
	attrCanon []int32
	// colCtx[pair*len(ctx.Attrs)+attr] is the column ID of the attribute
	// label in the pair's relation, -1 when absent. Built lazily by
	// ensureExec: fully cached calls never need it.
	colCtx []int32
	// attrNum / attrNumOK hold each context attribute parsed as a number
	// (for attribute variables used numerically, e.g. year arithmetic).
	// Lazy alongside colCtx.
	attrNum   []float64
	attrNumOK []bool
	execReady bool
}

// ensureExec builds the execution-only tables (column IDs, parsed numeric
// labels) on the first cache miss; serve/materialize paths skip the cost.
func (env *genEnv) ensureExec() {
	if env.execReady {
		return
	}
	env.execReady = true
	env.attrNum = make([]float64, len(env.ctx.Attrs))
	env.attrNumOK = make([]bool, len(env.ctx.Attrs))
	for i, a := range env.ctx.Attrs {
		if v, err := strconv.ParseFloat(a, 64); err == nil {
			env.attrNum[i] = v
			env.attrNumOK[i] = true
		}
	}
	env.colCtx = make([]int32, len(env.pairs)*len(env.ctx.Attrs))
	for pi := range env.pairs {
		for ai, a := range env.ctx.Attrs {
			env.colCtx[pi*len(env.ctx.Attrs)+ai] = -1
			if col, ok := env.idx.ColID(env.pairs[pi].rel, a); ok {
				env.colCtx[pi*len(env.ctx.Attrs)+ai] = col
			}
		}
	}
}

func newGenEnv(idx *table.Index, ctx Context) *genEnv {
	env := &genEnv{idx: idx, ctx: ctx}
	for _, r := range ctx.Relations {
		rel, ok := idx.RelID(r)
		if !ok {
			continue
		}
		for _, k := range ctx.Keys {
			row, ok := idx.RowID(rel, k)
			if !ok {
				continue
			}
			env.pairs = append(env.pairs, genPair{rel: rel, row: row, relName: r, key: k})
		}
	}
	env.pairCanon = make([]int32, len(env.pairs))
	for i := range env.pairs {
		env.pairCanon[i] = int32(i)
		for j := 0; j < i; j++ {
			if env.pairs[j].rel == env.pairs[i].rel && env.pairs[j].row == env.pairs[i].row {
				env.pairCanon[i] = int32(j)
				break
			}
		}
	}
	env.attrCanon = make([]int32, len(ctx.Attrs))
	for i, a := range ctx.Attrs {
		env.attrCanon[i] = int32(i)
		for j := 0; j < i; j++ {
			if ctx.Attrs[j] == a {
				env.attrCanon[i] = int32(j)
				break
			}
		}
	}
	return env
}

// candRec is one tentative-execution success before materialisation: the
// formula slot, the value, and the canonical slot tuple (offsets into the
// scratch slot arena).
type candRec struct {
	fid   int32
	off   int32
	n     int32
	value float64
}

// genScratch pools the per-claim enumeration state: candidate record
// slices, the slot arena, dedupe map and key buffer, the pair-tuple
// odometer, and formula interning. Query generation runs per claim on the
// session answer path, so recycling these keeps the hot path allocation-
// lean; the returned GeneratedQuery slices themselves are freshly
// materialised for the few surviving candidates and owned by the caller.
type genScratch struct {
	sols, alts  []candRec
	slots       []int32
	forms       []*formula.Formula
	fkeys       []string   // per fid, the canonical rendering (dedupe key)
	formAliases [][]string // per fid, pre-filled from the formula cache
	fidOf       map[string]int32
	seen        map[string]struct{}
	key         []byte
	pairTuple   []int32
}

var genScratchPool = sync.Pool{New: func() any {
	return &genScratch{
		fidOf: make(map[string]int32),
		seen:  make(map[string]struct{}),
	}
}}

func getGenScratch() *genScratch {
	return genScratchPool.Get().(*genScratch)
}

func putGenScratch(gs *genScratch) {
	gs.sols = gs.sols[:0]
	gs.alts = gs.alts[:0]
	gs.slots = gs.slots[:0]
	for i := range gs.forms {
		gs.forms[i] = nil // drop formula references while pooled
	}
	gs.forms = gs.forms[:0]
	for i := range gs.fkeys {
		gs.fkeys[i] = ""
	}
	gs.fkeys = gs.fkeys[:0]
	for i := range gs.formAliases {
		gs.formAliases[i] = nil
	}
	gs.formAliases = gs.formAliases[:0]
	clear(gs.fidOf)
	clear(gs.seen)
	genScratchPool.Put(gs)
}

// fid interns a formula by canonical string for this call; equal formulas
// share a slot, which is what makes the dedupe key catch duplicates.
func (gs *genScratch) fid(fkey string, f *formula.Formula) int32 {
	if id, ok := gs.fidOf[fkey]; ok {
		return id
	}
	id := int32(len(gs.forms))
	gs.fidOf[fkey] = id
	gs.forms = append(gs.forms, f)
	gs.fkeys = append(gs.fkeys, fkey)
	gs.formAliases = append(gs.formAliases, nil)
	return id
}

// aliasesOf returns (and caches) the alias list of an interned formula, so
// materialisation walks each formula's tree once, not once per candidate.
func (gs *genScratch) aliasesOf(fid int32) []string {
	if gs.formAliases[fid] == nil {
		gs.formAliases[fid] = expr.Aliases(gs.forms[fid].Expr)
	}
	return gs.formAliases[fid]
}

// dedupe drops records whose canonical (formula, slots) key was already
// seen, in place, preserving order (first wins — the enumeration-order
// candidate keeps its rank).
func (gs *genScratch) dedupe(recs []candRec) []candRec {
	out := recs[:0]
	for _, r := range recs {
		gs.key = binary.AppendVarint(gs.key[:0], int64(r.fid))
		for _, s := range gs.slots[r.off : r.off+r.n] {
			gs.key = binary.AppendVarint(gs.key, int64(s))
		}
		// string(gs.key) in the index expression is a no-alloc lookup; the
		// conversion only materialises when inserting a fresh key.
		if _, dup := gs.seen[string(gs.key)]; dup {
			continue
		}
		gs.seen[string(gs.key)] = struct{}{}
		out = append(out, r)
	}
	return out
}

// materialize builds the executable Query values for surviving candidates —
// the only place query generation touches strings or renders anything. It
// walks records in rank order, skips any whose rendered SQL was already
// emitted (distinct formulas colliding on SQL), and stops once limit
// distinct queries exist, so rendering stays proportional to the output,
// not the candidate set.
func (gs *genScratch) materialize(env *genEnv, recs []candRec, limit int) []GeneratedQuery {
	if len(recs) == 0 || limit <= 0 {
		return nil
	}
	if limit > len(recs) {
		limit = len(recs)
	}
	out := make([]GeneratedQuery, 0, limit)
	var seenSQL map[string]bool
	for _, r := range recs {
		if len(out) >= limit {
			break
		}
		f := gs.forms[r.fid]
		aliases := gs.aliasesOf(r.fid)
		q := &query.Query{Select: f.Expr, AttrBindings: make(map[string]string, len(f.AttrVars))}
		slots := gs.slots[r.off : r.off+r.n]
		for i, alias := range aliases {
			pr := &env.pairs[slots[i]]
			q.Bindings = append(q.Bindings, query.Binding{Alias: alias, Relation: pr.relName, Key: pr.key})
		}
		for j, v := range f.AttrVars {
			q.AttrBindings[v] = env.ctx.Attrs[slots[len(aliases)+j]]
		}
		if seenSQL == nil {
			seenSQL = make(map[string]bool, limit)
		}
		sql := q.SQL()
		if seenSQL[sql] {
			continue
		}
		seenSQL[sql] = true
		out = append(out, GeneratedQuery{Query: q, Value: r.value, Formula: gs.fkeys[r.fid]})
	}
	return out
}

// injectiveIdx enumerates ordered selections of k distinct indexes out of
// [0, n) — the index form of injectiveAssignments, in the same order.
func injectiveIdx(n, k int) [][]int32 {
	if k == 0 {
		return [][]int32{nil}
	}
	if n < k {
		return nil
	}
	var out [][]int32
	cur := make([]int32, 0, k)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(cur) == k {
			out = append(out, append([]int32(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, int32(i))
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

// repeatedIdx enumerates ordered selections with repetition over [0, n).
func repeatedIdx(n, k int) [][]int32 {
	if k == 0 {
		return [][]int32{nil}
	}
	if n == 0 {
		return nil
	}
	var out [][]int32
	cur := make([]int32, 0, k)
	var rec func()
	rec = func() {
		if len(cur) == k {
			out = append(out, append([]int32(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			cur = append(cur, int32(i))
			rec()
			cur = cur[:len(cur)-1]
		}
	}
	rec()
	return out
}

// injectiveAssignments enumerates ordered selections of n distinct values.
func injectiveAssignments(values []string, n int) [][]string {
	if n == 0 {
		return [][]string{nil}
	}
	if len(values) < n {
		return nil
	}
	var out [][]string
	for _, idxs := range injectiveIdx(len(values), n) {
		sel := make([]string, n)
		for i, ix := range idxs {
			sel[i] = values[ix]
		}
		out = append(out, sel)
	}
	return out
}

// repeatedAssignments enumerates ordered selections with repetition.
func repeatedAssignments(values []string, n int) [][]string {
	if n == 0 {
		return [][]string{nil}
	}
	if len(values) == 0 {
		return nil
	}
	var out [][]string
	for _, idxs := range repeatedIdx(len(values), n) {
		sel := make([]string, n)
		for i, ix := range idxs {
			sel[i] = values[ix]
		}
		out = append(out, sel)
	}
	return out
}

// TruthQuery builds the canonical ground-truth query of an annotated claim:
// formula aliases bind, in order, to (Relations[i mod], Keys[i mod]); the
// i-th attribute variable binds to Attrs[i]. The synthetic world generator
// produces annotations consistent with this convention, so the truth query
// always executes.
func (e *Engine) TruthQuery(c *claims.Claim) (*query.Query, error) {
	if c == nil || c.Truth == nil {
		return nil, fmt.Errorf("core: claim has no ground-truth annotation")
	}
	f, err := e.parseFormula(c.Truth.Formula)
	if err != nil {
		return nil, fmt.Errorf("core: claim %d: %w", c.ID, err)
	}
	aliases := e.formulaAliases(f)
	if len(c.Truth.Relations) == 0 || len(c.Truth.Keys) == 0 {
		return nil, fmt.Errorf("core: claim %d annotation lacks relations or keys", c.ID)
	}
	if len(f.AttrVars) > len(c.Truth.Attrs) {
		return nil, fmt.Errorf("core: claim %d annotation has %d attrs, formula needs %d",
			c.ID, len(c.Truth.Attrs), len(f.AttrVars))
	}
	q := &query.Query{Select: f.Expr, AttrBindings: map[string]string{}}
	for i, v := range f.AttrVars {
		q.AttrBindings[v] = c.Truth.Attrs[i]
	}
	for i, alias := range aliases {
		q.Bindings = append(q.Bindings, query.Binding{
			Alias:    alias,
			Relation: c.Truth.Relations[i%len(c.Truth.Relations)],
			Key:      c.Truth.Keys[i%len(c.Truth.Keys)],
		})
	}
	return q, nil
}
