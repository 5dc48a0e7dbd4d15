package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/feature"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/table"
	"github.com/repro/scrutinizer/internal/textproc"
)

// PropertyKind enumerates the four query properties predicted by the
// classifiers.
type PropertyKind int

const (
	PropRelation PropertyKind = iota
	PropKey
	PropAttr
	PropFormula
)

// String implements fmt.Stringer.
func (p PropertyKind) String() string {
	switch p {
	case PropRelation:
		return "relation"
	case PropKey:
		return "key"
	case PropAttr:
		return "attribute"
	case PropFormula:
		return "formula"
	}
	return fmt.Sprintf("PropertyKind(%d)", int(p))
}

// numKinds is the number of property kinds; a kind indexes arrays of this
// length.
const numKinds = int(PropFormula) + 1

// PropertyKinds lists all four kinds in canonical order.
func PropertyKinds() []PropertyKind {
	return []PropertyKind{PropRelation, PropKey, PropAttr, PropFormula}
}

// labelSep joins multi-valued properties (e.g. two key values) into a single
// classification label; '|' never occurs in generated vocabulary.
const labelSep = "|"

// JoinLabel encodes a value list as one classifier label.
func JoinLabel(values []string) string { return strings.Join(values, labelSep) }

// SplitLabel decodes a classifier label back into its value list.
func SplitLabel(label string) []string {
	if label == "" {
		return nil
	}
	return strings.Split(label, labelSep)
}

// TruthLabel extracts the training label of one property from a ground-truth
// annotation. Formula labels are canonicalised (parsed and re-rendered) so
// that labels derived from annotations and labels derived from generalising
// accepted queries share one vocabulary.
func TruthLabel(t *claims.GroundTruth, kind PropertyKind) string {
	if t == nil {
		return ""
	}
	switch kind {
	case PropRelation:
		return JoinLabel(t.Relations)
	case PropKey:
		return JoinLabel(t.Keys)
	case PropAttr:
		return JoinLabel(t.Attrs)
	case PropFormula:
		return CanonicalFormula(t.Formula)
	}
	return ""
}

// CanonicalFormula parses and re-renders a formula string into the
// classifier's canonical label form; unparseable input is returned verbatim.
func CanonicalFormula(src string) string {
	if src == "" {
		return ""
	}
	f, err := formula.ParseFormula(src)
	if err != nil {
		return src
	}
	return f.String()
}

// Config parameterises the engine.
type Config struct {
	// Classifier configures all four models.
	Classifier classifier.Config
	// Cost is the §5.1 crowd cost model.
	Cost planner.CostModel
	// Tolerance is the admissible error rate e of Definition 2.
	Tolerance float64
	// TopK is how many candidates each classifier contributes per
	// property (the paper shows up to ten answer options per property in
	// the simulation).
	TopK int
	// MaxAssignments caps the brute-force variable-assignment loop of
	// Algorithm 2 per formula, keeping query generation sub-second as in
	// the paper.
	MaxAssignments int
	// MaxAlternates bounds how many non-matching queries are kept as
	// correction suggestions (Example 4).
	MaxAlternates int
	// QueryCache, when non-nil, is a shared tentative-execution cache
	// (typically one per corpus, shared across engines so concurrent
	// sessions deduplicate Algorithm 2 work). Nil gives the engine a
	// private cache.
	QueryCache *QueryCache
	// FormulaParallelism bounds the fan-out of Algorithm 2 enumeration
	// across formulas within one claim: cache-missing formulas are
	// enumerated concurrently, each at the full assignment budget, before
	// the sequential serve pass (bit-identical outputs; see
	// GenerateQueries). <= 1 keeps enumeration sequential. 0 defaults to
	// min(4, GOMAXPROCS).
	FormulaParallelism int
}

// DefaultConfig mirrors the experimental setup of §6.
func DefaultConfig() Config {
	return Config{
		Classifier:     classifier.Config{Epochs: 6, LearningRate: 0.5, L2: 1e-4, Seed: 1},
		Cost:           planner.DefaultCostModel(),
		Tolerance:      0.05,
		TopK:           10,
		MaxAssignments: 20000,
		MaxAlternates:  5,

		FormulaParallelism: defaultFormulaParallelism(),
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Cost == (planner.CostModel{}) {
		c.Cost = d.Cost
	}
	if c.Tolerance <= 0 {
		c.Tolerance = d.Tolerance
	}
	if c.TopK <= 0 {
		c.TopK = d.TopK
	}
	if c.MaxAssignments <= 0 {
		c.MaxAssignments = d.MaxAssignments
	}
	if c.MaxAlternates <= 0 {
		c.MaxAlternates = d.MaxAlternates
	}
	if c.FormulaParallelism <= 0 {
		c.FormulaParallelism = d.FormulaParallelism
	}
	return c
}

// Engine is the assembled Scrutinizer system for one corpus + document pair.
type Engine struct {
	corpus *table.Corpus
	pipe   *feature.Pipeline
	cfg    Config

	models map[PropertyKind]*classifier.Classifier
	lib    *formula.Library

	// qcache memoizes tentative execution per corpus generation (see
	// QueryCache); fc caches everything derivable from a formula string
	// alone — the parse, the canonical rendering, the alias list and the
	// compiled program (all corpus- and training-independent, so the cache
	// is shared by an engine and every Clone derived from it).
	qcache *QueryCache
	fc     *formulaCache

	// genOverride, when set, replaces GenerateQueries' compiled engine —
	// the benchmark/equivalence hook that lets the reference interpreter
	// drive the full Algorithm 1 loop for end-to-end comparisons.
	genOverride func(Context, []*formula.Formula, float64, bool) ([]GeneratedQuery, []GeneratedQuery)

	// featMu guards the feature cache: claim verification fans out across
	// goroutines (Verify with Parallelism > 1) and Featurize is on that
	// shared path. Everything else the workers touch — classifier scoring,
	// the formula library, the corpus — is read-only between training
	// rounds.
	featMu    sync.RWMutex
	featCache map[int]textproc.Sparse // claim ID -> features

	// assessMu guards the per-claim assessment cache and the model
	// generation counter. Classifier outputs for a claim are pure in
	// (claim, model state), so each claim's candidates / entropy / expected
	// cost are computed once per generation and invalidated simply by
	// bumping gen when train refits the models — the scheduler's utility
	// scan and the per-claim planning inside a batch then share one scoring
	// pass instead of re-running softmax over all claims each round.
	assessMu sync.RWMutex
	gen      uint64
	assessed map[int]*assessment // claim ID -> cached assessment

	// pending is the fit a run's last batch barrier prepared but did not
	// run (see ensureFitted); nil when the models are current. fitMu
	// serialises the readers that race to run it.
	pending atomic.Pointer[fitPlan]
	fitMu   sync.Mutex

	// seqAssess forces assessAll onto the legacy per-claim scoring path —
	// the reference implementation the batch path is pinned against in
	// the equivalence tests. Never set outside tests.
	seqAssess bool
}

// assessment is everything one scoring pass over the four models yields for
// a claim, stamped with the model generation it was computed under.
type assessment struct {
	gen     uint64
	utility float64            // u(c): summed predictive entropies (Definition 7)
	cost    float64            // v(c): expected crowd seconds (Definition 8)
	props   []planner.Property // per-property top-k candidates (planning input)
	plan    *planner.Plan      // the §5.1 question plan; nil when planning failed
	planErr error              // why plan is nil
}

// NewEngine wires an engine from a corpus and a fitted feature pipeline.
func NewEngine(corpus *table.Corpus, pipe *feature.Pipeline, cfg Config) (*Engine, error) {
	if corpus == nil {
		return nil, fmt.Errorf("core: nil corpus")
	}
	if pipe == nil {
		return nil, fmt.Errorf("core: nil feature pipeline")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Cost.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		corpus:    corpus,
		pipe:      pipe,
		cfg:       cfg,
		models:    make(map[PropertyKind]*classifier.Classifier, 4),
		lib:       formula.NewLibrary(),
		featCache: make(map[int]textproc.Sparse),
		assessed:  make(map[int]*assessment),
		qcache:    cfg.QueryCache,
		fc:        newFormulaCache(),
	}
	if e.qcache == nil {
		e.qcache = NewQueryCache()
	}
	for _, k := range PropertyKinds() {
		e.models[k] = classifier.New(cfg.Classifier)
	}
	return e, nil
}

// Clone derives an independent engine with the same trained state — how a
// verification run gets an engine it may retrain at every batch barrier
// without racing other runs. The four classifiers are O(1) copy-on-write
// clones (see package classifier), so neither side's retraining perturbs
// the other. The corpus, feature pipeline, formula library and caches are
// shared: they are immutable, internally synchronized, or (the library)
// replaced rather than mutated by Train. The feature and assessment caches
// start empty: they are per-run state keyed by claim ID, and distinct runs
// may verify distinct documents whose claim IDs collide. Clone must not
// run concurrently with Train on the receiver; it is safe against
// concurrent scoring and other Clones. A fit the receiver deferred runs
// first, so the clone starts from the fitted models.
func (e *Engine) Clone() *Engine {
	e.ensureFitted()
	cp := &Engine{
		corpus:      e.corpus,
		pipe:        e.pipe,
		cfg:         e.cfg,
		models:      make(map[PropertyKind]*classifier.Classifier, len(e.models)),
		lib:         e.lib,
		qcache:      e.qcache,
		fc:          e.fc,
		genOverride: e.genOverride,
		featCache:   make(map[int]textproc.Sparse),
		assessed:    make(map[int]*assessment),
		gen:         e.Generation(),
	}
	for k, m := range e.models {
		cp.models[k] = m.Clone()
	}
	return cp
}

// Corpus returns the engine's relational corpus.
func (e *Engine) Corpus() *table.Corpus { return e.corpus }

// QueryCacheStats reports the engine's tentative-execution cache state.
func (e *Engine) QueryCacheStats() QueryCacheStats { return e.qcache.Stats() }

// formulaCacheCap bounds the distinct formula strings the cache retains;
// the formula vocabulary is small in practice, the cap only guards against
// adversarial checker input (formula strings ultimately arrive through
// crowd answers and HTTP sessions).
const formulaCacheCap = 4096

// fcEntry is everything the engine ever derives from one formula string:
// the parse result (or its error), the canonical rendering, the alias list
// of the expression, and the compiled program. All of it is corpus- and
// training-independent, so entries never invalidate.
type fcEntry struct {
	f       *formula.Formula // nil when the source does not parse
	err     error            // the parse error when f is nil
	canon   string           // f.String(); the source verbatim when unparseable
	aliases []string         // expr.Aliases(f.Expr); computed lazily
	prog    *expr.Program    // compiled program; nil until first compiled
}

// formulaCache memoizes formula derivations keyed both by source string
// (classifier labels, crowd answers, annotations) and by parsed pointer
// (formulas flowing from buildFinal into query generation), so the
// per-claim hot path — parse the top-k formula options, render their
// canonical keys, walk their alias lists, compile — degenerates to map
// hits after the first claim of a vocabulary. One cache is shared by an
// engine and every Clone derived from it. All methods are safe for
// concurrent use.
type formulaCache struct {
	mu    sync.RWMutex
	bySrc map[string]*fcEntry
	byPtr map[*formula.Formula]*fcEntry
}

func newFormulaCache() *formulaCache {
	return &formulaCache{
		bySrc: make(map[string]*fcEntry),
		byPtr: make(map[*formula.Formula]*fcEntry),
	}
}

// intern returns the cache entry for a source string, parsing on first
// use. Successful parses are registered under the source, the canonical
// rendering and the parsed pointer, so later lookups through any of the
// three converge on one entry.
func (fc *formulaCache) intern(src string) *fcEntry {
	fc.mu.RLock()
	ent, ok := fc.bySrc[src]
	fc.mu.RUnlock()
	if ok {
		return ent
	}
	f, err := formula.ParseFormula(src)
	if err != nil {
		ent = &fcEntry{err: err, canon: src}
	} else {
		ent = &fcEntry{f: f, canon: f.String()}
	}
	fc.mu.Lock()
	if prev, ok := fc.bySrc[src]; ok {
		ent = prev // racing duplicate parse: first writer wins
	} else if len(fc.bySrc) < formulaCacheCap {
		fc.bySrc[src] = ent
		if ent.f != nil {
			if _, ok := fc.bySrc[ent.canon]; !ok {
				fc.bySrc[ent.canon] = ent
			}
			fc.byPtr[ent.f] = ent
		}
	}
	fc.mu.Unlock()
	return ent
}

// ofFormula returns the cache entry for an already-parsed formula,
// rendering and registering it on first sight (formulas born outside the
// cache, e.g. from Generalize or direct library loads).
func (fc *formulaCache) ofFormula(f *formula.Formula) *fcEntry {
	fc.mu.RLock()
	ent, ok := fc.byPtr[f]
	fc.mu.RUnlock()
	if ok {
		return ent
	}
	ent = &fcEntry{f: f, canon: f.String()}
	fc.mu.Lock()
	if prev, ok := fc.byPtr[f]; ok {
		ent = prev
	} else if len(fc.byPtr) < formulaCacheCap {
		fc.byPtr[f] = ent
		if _, ok := fc.bySrc[ent.canon]; !ok {
			fc.bySrc[ent.canon] = ent
		}
	}
	fc.mu.Unlock()
	return ent
}

// aliasesOf returns the entry's alias list, computing it once. The slice
// is shared read-only by all callers.
func (fc *formulaCache) aliasesOf(ent *fcEntry) []string {
	fc.mu.RLock()
	aliases := ent.aliases
	fc.mu.RUnlock()
	if aliases != nil || ent.f == nil {
		return aliases
	}
	aliases = expr.Aliases(ent.f.Expr)
	fc.mu.Lock()
	if ent.aliases == nil {
		ent.aliases = aliases
	} else {
		aliases = ent.aliases
	}
	fc.mu.Unlock()
	return aliases
}

// parseFormula parses a formula string through the engine's formula cache:
// the cached equivalent of formula.ParseFormula. The returned formula is
// shared and must be treated as immutable.
func (e *Engine) parseFormula(src string) (*formula.Formula, error) {
	ent := e.fc.intern(src)
	return ent.f, ent.err
}

// canonicalFormula is the cached equivalent of CanonicalFormula.
func (e *Engine) canonicalFormula(src string) string {
	if src == "" {
		return ""
	}
	return e.fc.intern(src).canon
}

// truthLabel is the cached equivalent of TruthLabel: formula labels
// canonicalise through the formula cache instead of re-parsing per call
// (the simulated oracle asks for the truth label once per screen, training
// once per annotated claim per round).
func (e *Engine) truthLabel(t *claims.GroundTruth, kind PropertyKind) string {
	if t == nil {
		return ""
	}
	if kind == PropFormula {
		return e.canonicalFormula(t.Formula)
	}
	return TruthLabel(t, kind)
}

// formulaKey returns the canonical rendering of a parsed formula, cached
// by pointer — GenerateQueries needs it per formula per claim, and the
// formulas it sees almost always came out of the same cache.
func (e *Engine) formulaKey(f *formula.Formula) string {
	return e.fc.ofFormula(f).canon
}

// formulaAliases returns the cached alias list of a parsed formula.
func (e *Engine) formulaAliases(f *formula.Formula) []string {
	return e.fc.aliasesOf(e.fc.ofFormula(f))
}

// compiledProgram returns the compiled program for a canonical formula
// string, compiling and caching on first use; nil when uncompilable.
func (e *Engine) compiledProgram(fkey string, n expr.Node) *expr.Program {
	fc := e.fc
	ent := fc.intern(fkey)
	fc.mu.RLock()
	prog := ent.prog
	fc.mu.RUnlock()
	if prog != nil {
		return prog
	}
	prog, err := expr.Compile(n)
	if err != nil {
		return nil
	}
	fc.mu.Lock()
	if ent.prog == nil {
		ent.prog = prog
	} else {
		prog = ent.prog
	}
	fc.mu.Unlock()
	return prog
}

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Library returns the formula library accumulated from training labels.
func (e *Engine) Library() *formula.Library { return e.lib }

// Model returns the classifier for a property kind, running a deferred
// fit first (see ensureFitted).
func (e *Engine) Model(kind PropertyKind) *classifier.Classifier {
	e.ensureFitted()
	return e.models[kind]
}

// Generation returns the model generation: how many times retraining has
// refit the classifiers. Cached per-claim assessments are valid for
// exactly one generation; session front ends surface it as a progress /
// health signal. A deferred fit already counts (its barrier bumped the
// generation), so Generation never forces it.
func (e *Engine) Generation() uint64 {
	e.assessMu.RLock()
	defer e.assessMu.RUnlock()
	return e.gen
}

// Featurize returns (and caches) the feature vector of a claim. It is safe
// for concurrent use. The slice-backed Sparse vectors are already sorted,
// so no separate index cache is needed.
func (e *Engine) Featurize(c *claims.Claim) textproc.Sparse {
	e.featMu.RLock()
	v, ok := e.featCache[c.ID]
	e.featMu.RUnlock()
	if ok {
		return v
	}
	// Compute outside the lock: Vector is pure and featurization is
	// idempotent, so a racing duplicate computation is harmless.
	v = e.pipe.Vector(c.Sentence, c.Text)
	e.featMu.Lock()
	e.featCache[c.ID] = v
	e.featMu.Unlock()
	return v
}

// Train retrains all four classifiers from the annotated claims (those with
// Truth set). Claims without annotations are skipped. It also refreshes the
// formula library. Algorithm 1 calls this after every verified batch over
// a pool that only grows; as long as no label a classifier already knows
// has vanished from its examples, it warm-starts from its previous
// weights instead of refitting from scratch (see package classifier). A
// kind with no labels in the pool keeps its previous model. The four
// models train concurrently; see train.
func (e *Engine) Train(annotated []*claims.Claim) error {
	_, err := e.train(annotated, DefaultParallelism(), nil, false)
	return err
}

// fitPlan is a prepared retrain: the example set of every property kind,
// empty for a kind with no labels, whether each set extends the pool of
// the kind's previous fit, and the fan-out to fit them with.
type fitPlan struct {
	sets        [numKinds][]classifier.Example
	appended    [numKinds]bool
	parallelism int
}

// train builds the per-kind example sets and the formula library from
// the annotated claims and fits every kind that has examples. It returns,
// for every model it fitted, whether that fit warm-started.
//
// The four models are independent (own weights, own deterministic shuffle
// seed), so with parallelism > 1 they train concurrently — on a multi-core
// machine this takes the per-batch retraining of Algorithm 1 from the sum
// of the four training times down to the slowest single model, which is
// the serial bottleneck of document verification at paper scale. Verify
// threads its VerifyConfig.Parallelism through here so a Parallelism=1
// run is a truly sequential baseline.
//
// fitted is nil except at a run's batch barriers, where it marks the
// kinds the run has fitted before. The run's pool only grows, in order,
// so for those kinds the set provably extends the previous fit's pool, and
// their fits replay-sample (classifier.TrainAppended); train then marks
// every kind it fits. Every other fit passes over the whole set: Train,
// and a run's first fit of a kind, whose previous pool was the verifier's.
//
// With deferFit it stops short of the fit: the library and the generation
// are already the fitted state's, and the fit waits on the engine until
// something reads the models (ensureFitted); fits is then nil. A batch
// barrier defers the fit when it ends its run. Any error comes from the
// preparation, so a deferred fit fails at its barrier as an eager one
// would.
func (e *Engine) train(annotated []*claims.Claim, parallelism int, fitted *[numKinds]bool, deferFit bool) ([]bool, error) {
	// A fit still pending is the previous state a warm start builds on.
	e.ensureFitted()
	p := &fitPlan{parallelism: parallelism}
	if fitted != nil {
		p.appended = *fitted
	}
	e.lib = formula.NewLibrary()
	labelled := false
	for _, c := range annotated {
		if c == nil || c.Truth == nil {
			continue
		}
		f := e.Featurize(c)
		for _, k := range PropertyKinds() {
			label := e.truthLabel(c.Truth, k)
			if label == "" {
				continue
			}
			p.sets[k] = append(p.sets[k], classifier.Example{Features: f, Label: label})
			labelled = true
		}
		if c.Truth.Formula != "" {
			// The cached equivalent of lib.AddString: the same annotation
			// formula re-enters training every round, so parse and render
			// it once.
			ent := e.fc.intern(c.Truth.Formula)
			if ent.err != nil {
				return nil, fmt.Errorf("core: claim %d has malformed formula %q: %w", c.ID, c.Truth.Formula, ent.err)
			}
			e.lib.AddKeyed(ent.canon, ent.f)
		}
	}
	if !labelled {
		return nil, nil
	}
	if fitted != nil {
		for k, set := range p.sets {
			fitted[k] = fitted[k] || len(set) > 0
		}
	}
	var fits []bool
	if deferFit {
		e.pending.Store(p)
	} else {
		var err error
		if fits, err = e.fit(p); err != nil {
			return nil, err
		}
	}
	// Model state changed: stamp a new generation so cached per-claim
	// assessments recompute lazily on next use.
	e.assessMu.Lock()
	e.gen++
	e.assessMu.Unlock()
	return fits, nil
}

// fit trains every kind of p that has examples, concurrently under
// p.parallelism, and returns the warm flag of each model it fitted in
// kind order. A kind without examples keeps its previous model — for a
// run, the verifier's model, or untrained on a fresh engine.
func (e *Engine) fit(p *fitPlan) ([]bool, error) {
	kinds := PropertyKinds()
	errs := make([]error, len(kinds))
	runPool(len(kinds), p.parallelism, func(i int) {
		k := kinds[i]
		if len(p.sets[k]) == 0 {
			return
		}
		train := e.models[k].Train
		if p.appended[k] {
			train = e.models[k].TrainAppended
		}
		if err := train(p.sets[k]); err != nil {
			errs[i] = fmt.Errorf("core: training %s classifier: %w", k, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var fits []bool
	for _, k := range kinds {
		if len(p.sets[k]) > 0 {
			fits = append(fits, e.models[k].WarmStarted())
		}
	}
	return fits, nil
}

// ensureFitted runs the fit a run's last barrier deferred, once, before
// anything reads the models. It is the one choke point of every reader:
// Model, Clone, assess and assessMany (and through them StartDocument,
// VerifyClaim and VerifyClaimWith), and a later retrain, whose warm start
// builds on the fitted state. The fit is the one the barrier would have
// run, on the same sets, so readers see exactly the models an eager fit
// gives; a finished run nobody reads never pays for it. With nothing
// pending it costs one atomic load.
func (e *Engine) ensureFitted() {
	if e.pending.Load() == nil {
		return
	}
	e.fitMu.Lock()
	defer e.fitMu.Unlock()
	p := e.pending.Load()
	if p == nil {
		return // a racing reader ran it
	}
	fits, err := e.fit(p)
	if err != nil {
		// train puts only non-empty sets of non-empty labels into a
		// plan, and classifier.Train rejects nothing else.
		panic(fmt.Sprintf("core: deferred fit: %v", err))
	}
	e.pending.Store(nil)
	obsModelFits(fits)
}

// assess returns the claim's cached assessment, computing it when the
// cache misses or the model generation moved on. Classifier scoring is
// pure between Train calls, so concurrent duplicate computation (two
// workers racing the same cold claim) is deterministic and harmless — the
// last writer wins with an identical value.
func (e *Engine) assess(c *claims.Claim) *assessment {
	e.ensureFitted()
	e.assessMu.RLock()
	a, ok := e.assessed[c.ID]
	gen := e.gen
	e.assessMu.RUnlock()
	if ok && a.gen == gen {
		return a
	}

	f := e.Featurize(c)
	a = &assessment{gen: gen, props: make([]planner.Property, 0, 4)}
	for _, k := range PropertyKinds() {
		top, entropy := e.models[k].Analyze(f, e.cfg.TopK)
		a.utility += entropy
		var opts []planner.Option
		for _, p := range top {
			opts = append(opts, planner.Option{Value: p.Label, Prob: p.Prob})
		}
		a.props = append(a.props, planner.Property{
			Name:    k.String(),
			Options: opts,
			// The query context (relations, keys, attributes) must be
			// validated by the crowd regardless of pruning power;
			// formulas are filtered by tentative execution instead
			// (§4.3) unless the greedy selection decides a formula
			// screen is worth its cost.
			Required: k != PropFormula,
		})
	}
	a.plan, a.planErr = planner.BuildPlan(planner.NewCandidateSpace(a.props), e.cfg.Cost)
	if a.planErr != nil {
		a.plan = nil
		a.cost = e.cfg.Cost.ManualCost()
	} else {
		a.cost = a.plan.ExpectedCost
	}

	e.assessMu.Lock()
	e.assessed[c.ID] = a
	e.assessMu.Unlock()
	return a
}

// assessMany fills the assessment cache for every listed claim that lacks
// a current-generation entry — the batch-scored scheduler round. Instead
// of assess's per-claim, per-kind scoring calls, all stale claims are
// featurized once, each property kind scores the whole set in one
// AnalyzeBatch pass over a dense feature matrix, and the per-claim
// options/properties are assembled into shared arenas (one allocation per
// round instead of per claim). Re-scoring is incremental across rounds: a
// retrain bumps the generation and every claim goes stale; rounds without
// a retrain reuse every cached assessment and score only never-seen
// claims. The assembled assessments are bit-identical to assess's (same
// accumulation order for the utility sum, same option values, same
// BuildPlan inputs), pinned by the batch-vs-sequential equivalence tests.
func (e *Engine) assessMany(cs []*claims.Claim, parallelism int) {
	e.ensureFitted()
	e.assessMu.RLock()
	gen := e.gen
	stale := make([]*claims.Claim, 0, len(cs))
	for _, c := range cs {
		if a, ok := e.assessed[c.ID]; !ok || a.gen != gen {
			stale = append(stale, c)
		}
	}
	e.assessMu.RUnlock()
	if len(stale) == 0 {
		return
	}
	obsBatchScored(len(stale))
	n := len(stale)
	feats := make([]textproc.Sparse, n)
	runPool(n, parallelism, func(i int) { feats[i] = e.Featurize(stale[i]) })

	kinds := PropertyKinds()
	preds := make([][][]classifier.Prediction, len(kinds))
	ents := make([][]float64, len(kinds))
	runPool(len(kinds), parallelism, func(ki int) {
		preds[ki], ents[ki] = e.models[kinds[ki]].AnalyzeBatch(feats, e.cfg.TopK)
	})

	totalOpts := 0
	for ki := range kinds {
		for _, ps := range preds[ki] {
			totalOpts += len(ps)
		}
	}
	// Arena assembly: both appends stay within the precomputed capacity,
	// so the per-claim subslices remain valid.
	optArena := make([]planner.Option, 0, totalOpts)
	propArena := make([]planner.Property, 0, n*len(kinds))
	as := make([]*assessment, n)
	for i := range stale {
		a := &assessment{gen: gen}
		propStart := len(propArena)
		for ki, k := range kinds {
			a.utility += ents[ki][i]
			var opts []planner.Option
			if ps := preds[ki][i]; len(ps) > 0 {
				optStart := len(optArena)
				for _, p := range ps {
					optArena = append(optArena, planner.Option{Value: p.Label, Prob: p.Prob})
				}
				opts = optArena[optStart:len(optArena):len(optArena)]
			}
			propArena = append(propArena, planner.Property{
				Name:     k.String(),
				Options:  opts,
				Required: k != PropFormula, // see assess
			})
		}
		a.props = propArena[propStart:len(propArena):len(propArena)]
		as[i] = a
	}
	runPool(n, parallelism, func(i int) {
		a := as[i]
		a.plan, a.planErr = planner.BuildPlan(planner.NewCandidateSpace(a.props), e.cfg.Cost)
		if a.planErr != nil {
			a.plan = nil
			a.cost = e.cfg.Cost.ManualCost()
		} else {
			a.cost = a.plan.ExpectedCost
		}
	})
	e.assessMu.Lock()
	for i, c := range stale {
		e.assessed[c.ID] = as[i]
	}
	e.assessMu.Unlock()
}

// Candidates returns, for each property, the classifier's top-k options with
// probabilities — the raw material for question planning (§5.1) and query
// generation (§4.3). Untrained properties yield empty option lists. The
// underlying scoring is cached per model generation; the returned slices
// are fresh copies the caller owns.
func (e *Engine) Candidates(c *claims.Claim) []planner.Property {
	cached := e.assess(c).props
	out := make([]planner.Property, len(cached))
	for i, p := range cached {
		p.Options = append([]planner.Option(nil), p.Options...)
		out[i] = p
	}
	return out
}

// Utility is the training utility u(c) of Definition 7: the sum of the
// predictive entropies of all four models on the claim.
func (e *Engine) Utility(c *claims.Claim) float64 {
	return e.assess(c).utility
}

// PlanQuestions returns the §5.1 question plan for a claim under the
// current classifier state. The plan comes from the cached assessment —
// the same BuildPlan run that produced the scheduler's expected cost — and
// is shared read-only with all callers of this generation.
func (e *Engine) PlanQuestions(c *claims.Claim) (*planner.Plan, *planner.CandidateSpace, error) {
	a := e.assess(c)
	if a.planErr != nil {
		return nil, nil, a.planErr
	}
	return a.plan, planner.NewCandidateSpace(a.props), nil
}

// ExpectedCost estimates the crowd time (seconds) to verify the claim under
// the current models — the v(c) input to the scheduler (Definition 8).
func (e *Engine) ExpectedCost(c *claims.Claim) float64 {
	return e.assess(c).cost
}

// Assess returns the expected verification cost v(c) and training utility
// u(c) of a claim. Algorithm 1 needs both for every remaining claim before
// every batch, so this is the scheduler's hot path: the underlying scoring
// pass runs once per claim per model generation and is cached until the
// next retrain invalidates it.
func (e *Engine) Assess(c *claims.Claim) (cost, utility float64) {
	a := e.assess(c)
	return a.cost, a.utility
}
