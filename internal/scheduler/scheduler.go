package scheduler

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/repro/scrutinizer/internal/ilp"
)

// Item describes one unverified claim for the scheduler.
type Item struct {
	// ClaimID identifies the claim.
	ClaimID int
	// Section is the section index the claim lives in.
	Section int
	// VerifyCost v(c) is the expected verification cost in seconds from
	// the question planner.
	VerifyCost float64
	// Utility u(c) is the training utility (entropy sum, Definition 7).
	Utility float64
}

// Config bounds batch selection (Definition 9).
type Config struct {
	// MaxCost is tm, the batch cost budget in seconds.
	MaxCost float64
	// MinSize and MaxSize are bl and bu.
	MinSize, MaxSize int
	// SectionReadCost is r(s), the cost of skimming one section; the
	// same constant for all sections here (a per-section map would be a
	// trivial extension).
	SectionReadCost float64
	// UtilityWeight is w_u of the Definition 9 variant; when > 0 the
	// objective becomes max sum(w_u*u(c)) - t(B) instead of pure
	// utility maximisation under the budget.
	UtilityWeight float64
	// SolverOptions bounds ILP effort.
	SolverOptions ilp.Options
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	if c.MaxCost <= 0 {
		return fmt.Errorf("scheduler: MaxCost must be positive, got %g", c.MaxCost)
	}
	if c.MinSize < 0 || c.MaxSize < c.MinSize {
		return fmt.Errorf("scheduler: need 0 <= MinSize <= MaxSize, got [%d, %d]", c.MinSize, c.MaxSize)
	}
	if c.SectionReadCost < 0 {
		return fmt.Errorf("scheduler: SectionReadCost must be non-negative, got %g", c.SectionReadCost)
	}
	return nil
}

// Batch is the selected claim batch.
type Batch struct {
	ClaimIDs []int
	Sections []int
	// Cost is t(B) of Definition 8.
	Cost float64
	// Utility is the accumulated training utility.
	Utility float64
	// Optimal reports whether the ILP solver proved optimality.
	Optimal bool
}

// BatchCost computes t(B) (Definition 8) for an arbitrary subset of items.
func BatchCost(items []Item, sectionReadCost float64) float64 {
	var cost float64
	sections := map[int]bool{}
	for _, it := range items {
		cost += it.VerifyCost
		sections[it.Section] = true
	}
	return cost + float64(float64(len(sections))*sectionReadCost)
}

// SelectBatch solves the Definition 9 optimisation over the given items. A
// nil error with an empty batch means the instance is infeasible (e.g.
// MinSize claims cannot fit in the budget).
func SelectBatch(items []Item, cfg Config) (*Batch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return &Batch{Optimal: true}, nil
	}

	m := ilp.NewModel()

	// Claim variables cs_i. Objective: utility (optionally weighted with
	// cost subtracted, the Definition 9 variant).
	claimVar := make([]int, len(items))
	for i, it := range items {
		obj := it.Utility
		if cfg.UtilityWeight > 0 {
			obj = float64(cfg.UtilityWeight*it.Utility) - it.VerifyCost
		}
		claimVar[i] = m.AddVar(fmt.Sprintf("cs_%d", it.ClaimID), obj)
	}

	// Section variables sr_j for the distinct sections.
	sectionIdx := map[int]int{} // section -> variable
	var sections []int
	for _, it := range items {
		if _, ok := sectionIdx[it.Section]; !ok {
			obj := 0.0
			if cfg.UtilityWeight > 0 {
				obj = -cfg.SectionReadCost
			}
			sectionIdx[it.Section] = m.AddVar(fmt.Sprintf("sr_%d", it.Section), obj)
			sections = append(sections, it.Section)
		}
	}

	// Linking: cs_i <= sr_j  <=>  cs_i - sr_j <= 0.
	for i, it := range items {
		if err := m.AddConstraint(ilp.Constraint{
			Name:  fmt.Sprintf("link_%d", it.ClaimID),
			Terms: []ilp.Term{{Var: claimVar[i], Coeff: 1}, {Var: sectionIdx[it.Section], Coeff: -1}},
			Sense: ilp.LE,
			RHS:   0,
		}); err != nil {
			return nil, err
		}
	}

	// Budget: sum cs_i*v(c_i) + sum sr_j*r(s_j) <= tm.
	var budget []ilp.Term
	for i, it := range items {
		budget = append(budget, ilp.Term{Var: claimVar[i], Coeff: it.VerifyCost})
	}
	for _, s := range sections {
		budget = append(budget, ilp.Term{Var: sectionIdx[s], Coeff: cfg.SectionReadCost})
	}
	if err := m.AddConstraint(ilp.Constraint{
		Name: "budget", Terms: budget, Sense: ilp.LE, RHS: cfg.MaxCost,
	}); err != nil {
		return nil, err
	}

	// Cardinality: bl <= sum cs_i <= bu.
	var card []ilp.Term
	for i := range items {
		card = append(card, ilp.Term{Var: claimVar[i], Coeff: 1})
	}
	if cfg.MinSize > 0 {
		if err := m.AddConstraint(ilp.Constraint{
			Name: "minsize", Terms: card, Sense: ilp.GE, RHS: float64(cfg.MinSize),
		}); err != nil {
			return nil, err
		}
	}
	maxSize := cfg.MaxSize
	if maxSize == 0 || maxSize > len(items) {
		maxSize = len(items)
	}
	if err := m.AddConstraint(ilp.Constraint{
		Name: "maxsize", Terms: card, Sense: ilp.LE, RHS: float64(maxSize),
	}); err != nil {
		return nil, err
	}

	sol := m.Solve(cfg.SolverOptions)
	if !sol.Feasible {
		return &Batch{}, nil
	}

	b := &Batch{Optimal: sol.Optimal}
	secSeen := map[int]bool{}
	for i, it := range items {
		if sol.X[claimVar[i]] {
			b.ClaimIDs = append(b.ClaimIDs, it.ClaimID)
			b.Utility += it.Utility
			b.Cost += it.VerifyCost
			if !secSeen[it.Section] {
				secSeen[it.Section] = true
				b.Sections = append(b.Sections, it.Section)
			}
		}
	}
	sort.Ints(b.Sections)
	b.Cost += float64(float64(len(b.Sections)) * cfg.SectionReadCost)
	return b, nil
}

// GreedyBatch is the fallback/ablation baseline: take claims in descending
// utility-per-marginal-cost until the budget or bu is hit. Marginal cost
// accounts for section sharing (a second claim in an already-skimmed
// section does not pay the section cost again).
func GreedyBatch(items []Item, cfg Config) (*Batch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	maxSize := cfg.MaxSize
	if maxSize == 0 || maxSize > len(items) {
		maxSize = len(items)
	}
	b := &Batch{}
	secSeen := map[int]bool{}
	remaining := append([]int(nil), order...)
	for len(b.ClaimIDs) < maxSize && len(remaining) > 0 {
		bestIdx, bestScore := -1, -1.0
		for pos, i := range remaining {
			it := items[i]
			marginal := it.VerifyCost
			if !secSeen[it.Section] {
				marginal += cfg.SectionReadCost
			}
			if b.Cost+marginal > cfg.MaxCost {
				continue
			}
			score := it.Utility / (marginal + 1e-9)
			if score > bestScore {
				bestScore, bestIdx = score, pos
			}
		}
		if bestIdx < 0 {
			break
		}
		i := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		it := items[i]
		if !secSeen[it.Section] {
			secSeen[it.Section] = true
			b.Sections = append(b.Sections, it.Section)
			b.Cost += cfg.SectionReadCost
		}
		b.Cost += it.VerifyCost
		b.Utility += it.Utility
		b.ClaimIDs = append(b.ClaimIDs, it.ClaimID)
	}
	if len(b.ClaimIDs) < cfg.MinSize {
		return &Batch{}, nil // infeasible greedily
	}
	sort.Ints(b.Sections)
	return b, nil
}

// SequentialBatch is the "Sequential" baseline of §6.2: claims in document
// order (by ClaimID) until the budget or bu is reached; no utility
// optimisation.
func SequentialBatch(items []Item, cfg Config) (*Batch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ordered := append([]Item(nil), items...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ClaimID < ordered[j].ClaimID })
	maxSize := cfg.MaxSize
	if maxSize == 0 || maxSize > len(ordered) {
		maxSize = len(ordered)
	}
	b := &Batch{}
	secSeen := map[int]bool{}
	for _, it := range ordered {
		if len(b.ClaimIDs) >= maxSize {
			break
		}
		marginal := it.VerifyCost
		if !secSeen[it.Section] {
			marginal += cfg.SectionReadCost
		}
		if b.Cost+marginal > cfg.MaxCost {
			break
		}
		if !secSeen[it.Section] {
			secSeen[it.Section] = true
			b.Sections = append(b.Sections, it.Section)
		}
		b.Cost += marginal
		b.Utility += it.Utility
		b.ClaimIDs = append(b.ClaimIDs, it.ClaimID)
	}
	sort.Ints(b.Sections)
	return b, nil
}

// RandomBatch is an ablation baseline: claims in a seeded random order
// until the budget or bu is reached. It isolates how much of Scrutinizer's
// gain comes from *any* batching versus from utility-aware selection.
func RandomBatch(items []Item, cfg Config, seed int64) (*Batch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shuffled := append([]Item(nil), items...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	maxSize := cfg.MaxSize
	if maxSize == 0 || maxSize > len(shuffled) {
		maxSize = len(shuffled)
	}
	b := &Batch{}
	secSeen := map[int]bool{}
	for _, it := range shuffled {
		if len(b.ClaimIDs) >= maxSize {
			break
		}
		marginal := it.VerifyCost
		if !secSeen[it.Section] {
			marginal += cfg.SectionReadCost
		}
		if b.Cost+marginal > cfg.MaxCost {
			continue
		}
		if !secSeen[it.Section] {
			secSeen[it.Section] = true
			b.Sections = append(b.Sections, it.Section)
		}
		b.Cost += marginal
		b.Utility += it.Utility
		b.ClaimIDs = append(b.ClaimIDs, it.ClaimID)
	}
	if len(b.ClaimIDs) < cfg.MinSize {
		return &Batch{}, nil
	}
	sort.Ints(b.Sections)
	return b, nil
}

// DefaultSolverOptions gives the scheduler's ILP a bounded effort suitable
// for batch sizes around 100 out of ~1500 claims.
func DefaultSolverOptions() ilp.Options {
	return ilp.Options{MaxNodes: 400000, TimeLimit: 3 * time.Second}
}
