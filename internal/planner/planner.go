package planner

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// CostModel carries the crowd-time constants of §5.1. All values are in
// seconds. The paper requires vp << vf and sp << sf.
type CostModel struct {
	// VerifyProperty (vp) is the cost of reading and judging one answer
	// option about a query property.
	VerifyProperty float64
	// VerifyFull (vf) is the cost of judging one full-query option.
	VerifyFull float64
	// SuggestProperty (sp) is the cost of writing a property answer when
	// no displayed option is correct.
	SuggestProperty float64
	// SuggestFull (sf) is the cost of writing the full query from
	// scratch — the manual-baseline cost.
	SuggestFull float64
}

// DefaultCostModel matches the relative magnitudes of the user study: a
// manual claim check takes minutes (sf), scanning one option takes seconds.
func DefaultCostModel() CostModel {
	return CostModel{
		VerifyProperty:  2,
		VerifyFull:      15,
		SuggestProperty: 10,
		SuggestFull:     180,
	}
}

// Validate checks the paper's ordering assumptions.
func (cm CostModel) Validate() error {
	if cm.VerifyProperty <= 0 || cm.VerifyFull <= 0 || cm.SuggestProperty <= 0 || cm.SuggestFull <= 0 {
		return fmt.Errorf("planner: cost model values must be positive: %+v", cm)
	}
	if cm.VerifyProperty >= cm.VerifyFull {
		return fmt.Errorf("planner: need vp < vf, got vp=%g vf=%g", cm.VerifyProperty, cm.VerifyFull)
	}
	if cm.SuggestProperty >= cm.SuggestFull {
		return fmt.Errorf("planner: need sp < sf, got sp=%g sf=%g", cm.SuggestProperty, cm.SuggestFull)
	}
	return nil
}

// NumOptions returns nop = sf/vf (Corollary 1), at least 1.
func (cm CostModel) NumOptions() int {
	n := int(cm.SuggestFull / cm.VerifyFull)
	if n < 1 {
		n = 1
	}
	return n
}

// NumScreens returns nsc = sf/(vp+sp) (Corollary 1), at least 1.
func (cm CostModel) NumScreens() int {
	n := int(cm.SuggestFull / (cm.VerifyProperty + cm.SuggestProperty))
	if n < 1 {
		n = 1
	}
	return n
}

// OverheadBound returns the Theorem 1 worst-case relative verification
// overhead (nop*vf + nsc*(vp+sp)) / sf for the given screen/option counts.
func (cm CostModel) OverheadBound(nop, nsc int) float64 {
	return (float64(float64(nop)*cm.VerifyFull) + float64(float64(nsc)*(cm.VerifyProperty+cm.SuggestProperty))) / cm.SuggestFull
}

// Option is one candidate answer for a property, with its classifier
// probability.
type Option struct {
	Value string
	Prob  float64
}

// Property is one query property (relation / key / attribute / formula)
// with its candidate options.
type Property struct {
	// Name identifies the property ("relation", "key", ...).
	Name string
	// Options are candidate answers; the planner sorts them.
	Options []Option
	// Required marks properties whose value the verification flow must
	// obtain from the crowd regardless of pruning power (the query
	// context: relations, keys, attributes). Required properties always
	// get a screen — on cold start an empty screen whose answer is
	// suggested at cost sp. Non-required properties (the formula) get
	// screens only when the greedy selection finds them worth asking;
	// otherwise the system relies on classifier predictions and the
	// final screen.
	Required bool
}

// SortOptions returns the options in decreasing probability order (ties by
// value, deterministic) — Corollary 2 — without mutating the input. The
// (prob, value) key is a total order over any sane option list, so the
// result does not depend on the sort algorithm.
func SortOptions(opts []Option) []Option {
	out := append([]Option(nil), opts...)
	slices.SortFunc(out, func(a, b Option) int {
		if a.Prob != b.Prob {
			if a.Prob > b.Prob {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Value, b.Value)
	})
	return out
}

// ExpectedVerificationCost computes the Theorem 2 expectation
// vp * sum_i (1 - sum_{j<i} p_j) for an ordered option list.
func ExpectedVerificationCost(ordered []Option, vp float64) float64 {
	var cost, cum float64
	for _, o := range ordered {
		cost += float64(vp * (1 - cum))
		cum += o.Prob
		if cum > 1 {
			cum = 1
		}
	}
	return cost
}

// Screen is one planned question screen.
type Screen struct {
	Property string
	Options  []Option // sorted, truncated to the option budget
	// ExpectedCost is the Theorem 2 expectation for the displayed
	// options plus the residual suggestion cost if none applies.
	ExpectedCost float64
}

// Plan is the full question plan for one claim.
type Plan struct {
	Screens []Screen
	// FinalOptions is the number of query candidates shown on the final
	// screen (bounded by nop).
	FinalOptions int
	// ExpectedCost is the total expected crowd time for the claim in
	// seconds: property screens + final query screen.
	ExpectedCost float64
	// PruningPower is the expected number of query candidates excluded
	// by the selected screens (Definition 5).
	PruningPower float64
	// CandidateCount is the number of query candidates before pruning.
	CandidateCount int
}

// CandidateSpace describes the query-candidate set as the Cartesian product
// of property option lists; query candidate q is excluded by answer a of
// property s iff q's value for s differs from a. This is the structure the
// complexity remark under Theorem 6 exploits.
type CandidateSpace struct {
	props []Property
}

// NewCandidateSpace builds a candidate space; properties with no options
// contribute factor 1 (nothing to prune).
func NewCandidateSpace(props []Property) *CandidateSpace {
	return &CandidateSpace{props: props}
}

// Size returns the number of query candidates (product of option counts).
func (cs *CandidateSpace) Size() int {
	n := 1
	for _, p := range cs.props {
		if len(p.Options) > 0 {
			n *= len(p.Options)
		}
	}
	return n
}

// Properties returns the property list.
func (cs *CandidateSpace) Properties() []Property { return cs.props }

// normalised returns option probabilities normalised to sum to one (the
// mutual-exclusivity assumption of Theorem 3).
func normalised(opts []Option) []float64 {
	var total float64
	for _, o := range opts {
		if o.Prob > 0 {
			total += o.Prob
		}
	}
	out := make([]float64, len(opts))
	if total <= 0 {
		// Uniform fallback.
		for i := range out {
			out[i] = 1 / float64(len(opts))
		}
		return out
	}
	for i, o := range opts {
		if o.Prob > 0 {
			out[i] = o.Prob / total
		}
	}
	return out
}

// PruningPower computes P(S, Q, M) of Theorem 3 for the property subset
// sel (indexes into Properties). Exploiting the Cartesian product
// structure: for a property s with normalised probabilities p_i over m_s
// options, a candidate whose s-value is option i survives s with
// probability p_i (only the correct answer keeps it). The expected number
// of *surviving* candidates factorises as
//
//	|Q| * prod_{s in S} E_i[p_i * (1/m_s) * m_s] = |Q| * prod_s sum_i p_i^2 ...
//
// more precisely: a uniformly chosen candidate has value i on s with
// frequency 1/m_s, so its survival probability w.r.t. s is sum_i p_i / m_s
// weighted by matching: sum over options i of (1/m_s)*p_i ... the exact
// count is prod over s of sum_i p_i = 1 candidates? No — we compute the
// expected surviving count exactly by summing over candidate value
// combinations, which factorises into per-property sums:
//
//	E[|survivors|] = prod_{s in S} (sum_i p_i * 1) restricted to candidates
//	agreeing with the drawn answer = prod_{s in S} 1 * (candidates per
//	option) — see implementation below, which multiplies, per selected
//	property, the expected number of option values kept (exactly 1 when
//	answers are mutually exclusive) and, per unselected property, its full
//	option count.
//
// PruningPower = Size - E[|survivors|].
func (cs *CandidateSpace) PruningPower(sel []int) float64 {
	// sel is at most a handful of indexes (the nsc screen budget), and this
	// runs once per candidate property per greedy round — a linear contains
	// scan beats building a set every call.
	survivors := 1.0
	for i, p := range cs.props {
		m := len(p.Options)
		if m == 0 {
			continue
		}
		if slices.Contains(sel, i) {
			// The answer keeps exactly the candidates that agree with
			// it on this property: 1 out of m values survives,
			// regardless of which answer is drawn (probabilities sum
			// to one). Expected surviving factor = 1.
			survivors *= 1
		} else {
			survivors *= float64(m)
		}
	}
	return float64(cs.Size()) - survivors
}

// ExpectedSurvivors returns Size - PruningPower(sel).
func (cs *CandidateSpace) ExpectedSurvivors(sel []int) float64 {
	return float64(cs.Size()) - cs.PruningPower(sel)
}

// GreedySelect picks up to nsc properties maximising pruning power with the
// greedy algorithm of Theorem 5. It returns selected property indexes in
// pick order. Properties that add no pruning power (single-option or empty)
// are skipped.
func (cs *CandidateSpace) GreedySelect(nsc int) []int {
	// Reserve one spare slot so the probe append below never reallocates:
	// appending the candidate index writes into the backing array past
	// len(sel), which the next round either commits or overwrites.
	sel := make([]int, 0, min(nsc, len(cs.props))+1)
	chosen := make([]bool, len(cs.props))
	for len(sel) < nsc {
		bestIdx, bestGain := -1, 0.0
		base := cs.PruningPower(sel)
		for i := range cs.props {
			if chosen[i] || len(cs.props[i].Options) < 2 {
				continue
			}
			gain := cs.PruningPower(append(sel, i)) - base
			if gain > bestGain+1e-12 {
				bestIdx, bestGain = i, gain
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen[bestIdx] = true
		sel = append(sel, bestIdx)
	}
	return sel
}

// BuildPlan assembles the full question plan for a claim: Corollary 1
// budgets, greedy property selection, Corollary 2 option ordering, and the
// expected-cost roll-up used by the scheduler.
func BuildPlan(cs *CandidateSpace, cm CostModel) (*Plan, error) {
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	nop := cm.NumOptions()
	nsc := cm.NumScreens()

	// Greedy pruning-power selection fills the screen budget...
	sel := cs.GreedySelect(nsc)
	selected := make([]bool, len(cs.props))
	for _, i := range sel {
		selected[i] = true
	}
	// ...and Required context properties are force-included: the flow
	// must obtain their values even when the classifier offers nothing
	// (cold start), in which case the screen is an sp-cost suggestion.
	for i, p := range cs.props {
		if p.Required && !selected[i] {
			sel = append(sel, i)
			selected[i] = true
		}
	}

	plan := &Plan{CandidateCount: cs.Size()}
	coverage := 1.0
	for i, p := range cs.props {
		if !selected[i] {
			// No screen: the system relies on raw predictions; the
			// chance the true value is among the top-nop predictions is
			// their probability mass.
			coverage *= shownMass(p.Options, nop)
			continue
		}
		ordered := SortOptions(p.Options)
		if len(ordered) > nop {
			ordered = ordered[:nop]
		}
		// Raw classifier probabilities are exactly the p_a of Theorem 2;
		// residual mass means the checker suggests an answer (cost sp).
		var shown float64
		for _, o := range ordered {
			if o.Prob > 0 {
				shown += o.Prob
			}
		}
		shown = math.Min(shown, 1)
		cost := ExpectedVerificationCost(ordered, cm.VerifyProperty)
		cost += float64((1 - shown) * cm.SuggestProperty)
		plan.Screens = append(plan.Screens, Screen{
			Property:     p.Name,
			Options:      ordered,
			ExpectedCost: cost,
		})
		plan.ExpectedCost += cost
	}
	plan.PruningPower = cs.PruningPower(sel)

	// Final screen: up to nop surviving query candidates at vf each.
	// With probability (1 - coverage) a screen-less property was
	// mispredicted, the correct query is absent, and the checker writes
	// it from scratch (sf).
	survivors := cs.ExpectedSurvivors(sel)
	finalShown := int(math.Min(float64(nop), math.Max(survivors, 1)))
	plan.FinalOptions = finalShown
	expectedScan := float64(float64(finalShown) * cm.VerifyFull)
	plan.ExpectedCost += expectedScan + float64((1-coverage)*cm.SuggestFull)
	return plan, nil
}

// shownMass sums the top-k option probabilities, clamped to [0, 1]. Only
// the sum matters, not which tied option makes the cut, so when every
// option fits in the budget (the common case: option lists come from
// bounded classifier top-k) no ordering — and no copy — is needed.
func shownMass(opts []Option, k int) float64 {
	var mass float64
	if len(opts) <= k {
		for _, o := range opts {
			if o.Prob > 0 {
				mass += o.Prob
			}
		}
		return math.Min(mass, 1)
	}
	ordered := SortOptions(opts)
	for _, o := range ordered[:k] {
		if o.Prob > 0 {
			mass += o.Prob
		}
	}
	return math.Min(mass, 1)
}

// ManualCost is the baseline per-claim cost: suggesting the full query from
// scratch (used by the Manual baseline and by Theorem 1 comparisons).
func (cm CostModel) ManualCost() float64 { return cm.SuggestFull }
