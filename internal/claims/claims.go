// Package claims defines the claim model of the paper's Section 2: general
// claims (a comparison op between a query value and a parameter) and
// explicit claims (the parameter is a value stated in the claim text itself,
// checked for equality up to an admissible error rate). It also implements
// the syntactic parameter extraction of Section 4.1 — pulling numeric
// parameters like "3%", "nine-fold" or "22 200 TWh" out of claim text.
package claims

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind distinguishes explicit from general claims (Definitions 1 and 2).
type Kind int

const (
	// Explicit claims state their parameter in the text and imply the
	// equality comparison with a tolerance.
	Explicit Kind = iota
	// General claims compare the query value against a parameter that
	// may be implicit (e.g. "expanded aggressively").
	General
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Explicit:
		return "explicit"
	case General:
		return "general"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op is the comparison operator of Definition 1.
type Op int

const (
	OpEq Op = iota
	OpNeq
	OpLt
	OpGt
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Compare applies the operator with the given tolerance for equality. The
// tolerance is a relative admissible error rate (Definition 2): |v-p| <=
// e*max(|p|, eps). For inequality operators the tolerance is ignored.
func (o Op) Compare(v, p, e float64) bool {
	switch o {
	case OpEq:
		return RelClose(v, p, e)
	case OpNeq:
		return !RelClose(v, p, e)
	case OpLt:
		return v < p
	case OpGt:
		return v > p
	}
	return false
}

// RelClose reports whether v is within relative error e of p.
func RelClose(v, p, e float64) bool {
	if math.IsNaN(v) || math.IsNaN(p) {
		return false
	}
	scale := math.Abs(p)
	if scale < 1e-12 {
		// For parameters at or near zero, fall back to absolute error.
		return math.Abs(v-p) <= e
	}
	return math.Abs(v-p) <= e*scale
}

// GroundTruth is the annotation a past check (or the synthetic generator)
// attaches to a claim: the query elements that verify it. Scrutinizer uses
// these as training labels and the simulated crowd answers questions from
// them.
type GroundTruth struct {
	Relations []string // relation names used by the correct query
	Keys      []string // row key values
	Attrs     []string // attribute labels
	Formula   string   // canonical formula string (package formula)
	// Value is the correct query result; for incorrect claims it differs
	// from the parameter stated in the text.
	Value float64
}

// Claim is one verifiable statement inside a document.
type Claim struct {
	// ID is unique within a document.
	ID int
	// Text is the claim phrase itself.
	Text string
	// Sentence is the sentence containing the claim (context for the
	// classifiers, Figure 4).
	Sentence string
	// Section indexes the document section containing the claim; the
	// batch cost model (Definition 8) charges one skim per section.
	Section int
	// Kind distinguishes explicit from general claims.
	Kind Kind
	// Param is the stated parameter for explicit claims, or the
	// domain-specific implicit parameter for general ones.
	Param float64
	// HasParam reports whether Param is meaningful (general claims may
	// lack a predictable parameter and require user input, Example 7).
	HasParam bool
	// Cmp is the comparison operator (equality for explicit claims).
	Cmp Op
	// Truth carries the annotation from previous checks; nil when the
	// claim has never been checked (cold start).
	Truth *GroundTruth
	// Correct records whether the claim text agrees with the data; set
	// by the generator (it knows where it injected errors) and used to
	// score verification outcomes.
	Correct bool
}

// Complexity is the user-study complexity measure (Figure 6): the number of
// elements in the verifying query — key values, attributes, operations,
// constants and variables. It derives from the ground-truth annotation.
func (c *Claim) Complexity() int {
	if c.Truth == nil {
		return 0
	}
	n := len(c.Truth.Keys) + len(c.Truth.Attrs)
	n += formulaElements(c.Truth.Formula)
	return n
}

// formulaElements estimates the number of operations/constants/variables in
// a formula string without importing the expr package (avoiding a cycle for
// callers that only need claims). It counts operator characters, function
// names and numeric/variable tokens.
func formulaElements(f string) int {
	if f == "" {
		return 0
	}
	n := 0
	inNum := false
	inIdent := false
	for _, r := range f {
		switch {
		case r >= '0' && r <= '9' || r == '.':
			if !inNum && !inIdent {
				n++ // start of a numeric token
				inNum = true
			}
		case r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
			if !inIdent {
				n++ // start of an identifier token
				inIdent = true
			}
			inNum = false
		case r == '+' || r == '-' || r == '*' || r == '/' || r == '^' || r == '>' || r == '<' || r == '=':
			n++
			inNum, inIdent = false, false
		default:
			inNum, inIdent = false, false
		}
	}
	return n
}

// Document is a text to verify: an ordered list of claims partitioned into
// sections.
type Document struct {
	Title    string
	Claims   []*Claim
	Sections int
}

// ClaimsInSection returns the claims located in section s, in order.
func (d *Document) ClaimsInSection(s int) []*Claim {
	var out []*Claim
	for _, c := range d.Claims {
		if c.Section == s {
			out = append(out, c)
		}
	}
	return out
}

// Unannotated returns a copy of the document as a checker receives it
// before any check: every claim is a fresh copy with Truth cleared, all
// other fields equal. Fitting a verifier on it gives the §6.2 cold start
// (no previous checks). The receiver and its claims are not modified.
func (d *Document) Unannotated() *Document {
	out := &Document{Title: d.Title, Sections: d.Sections, Claims: make([]*Claim, len(d.Claims))}
	for i, c := range d.Claims {
		if c == nil {
			continue // left nil for Validate to report
		}
		cc := *c
		cc.Truth = nil
		out.Claims[i] = &cc
	}
	return out
}

// Validate checks document invariants: unique IDs, sections in range.
func (d *Document) Validate() error {
	seen := make(map[int]bool, len(d.Claims))
	for _, c := range d.Claims {
		if c == nil {
			return fmt.Errorf("claims: nil claim in document %q", d.Title)
		}
		if seen[c.ID] {
			return fmt.Errorf("claims: duplicate claim ID %d in document %q", c.ID, d.Title)
		}
		seen[c.ID] = true
		if c.Section < 0 || c.Section >= d.Sections {
			return fmt.Errorf("claims: claim %d in section %d, document has %d sections", c.ID, c.Section, d.Sections)
		}
	}
	return nil
}

// multiplierWords maps textual multipliers to parameter values ("nine-fold"
// -> 9), per Example 2.
var multiplierWords = map[string]float64{
	"two": 2, "three": 3, "four": 4, "five": 5, "six": 6, "seven": 7,
	"eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
	"double": 2, "triple": 3, "quadruple": 4, "half": 0.5, "twice": 2, "thrice": 3,
}

// ExtractParameter performs the syntactic parse of Section 4.1 on explicit
// claim text. It recognises, in priority order:
//
//  1. percentages: "grew by 3%" -> 0.03
//  2. multiplier words: "nine-fold", "doubled" -> 9, 2
//  3. plain numbers with digit-group spaces: "22 200 TWh" -> 22200
//
// It returns the parameter and true, or 0 and false when no parameter is
// found (the claim is then treated as general).
func ExtractParameter(text string) (float64, bool) {
	lower := strings.ToLower(text)

	// 1. Percentage.
	if i := strings.IndexByte(lower, '%'); i >= 0 {
		if v, ok := numberEndingAt(lower, i); ok {
			return v / 100, true
		}
	}
	if i := strings.Index(lower, " percent"); i >= 0 {
		if v, ok := numberEndingAt(lower, i); ok {
			return v / 100, true
		}
	}

	// 2. Multiplier words: "nine-fold", "ninefold", "nine fold",
	// "doubled"/"doubling", "tripled", "halved".
	for word, mult := range multiplierWords {
		for _, pat := range []string{word + "-fold", word + "fold", word + " fold"} {
			if strings.Contains(lower, pat) {
				return mult, true
			}
		}
	}
	for _, w := range []struct {
		pat  string
		mult float64
	}{
		{"doubl", 2}, {"tripl", 3}, {"quadrupl", 4}, {"halv", 0.5},
	} {
		if strings.Contains(lower, w.pat) {
			return w.mult, true
		}
	}

	// 3. Plain number (with optional digit-group spaces). Scan for digit
	// runs; merge groups of exactly three digits separated by single
	// spaces ("22 200"). Skip 4-digit years (1900-2099) unless nothing
	// else is found.
	var yearFallback float64
	var haveYear bool
	i := 0
	for i < len(lower) {
		if lower[i] < '0' || lower[i] > '9' {
			i++
			continue
		}
		// Don't treat the decimals of an already-consumed token or
		// ordinal suffixes ("2nd") specially; grab the full number.
		start := i
		j := i
		for j < len(lower) && (lower[j] >= '0' && lower[j] <= '9' || lower[j] == '.') {
			j++
		}
		numStr := lower[start:j]
		// Merge " NNN" digit triplets (thousands separators as spaces).
		for j+4 <= len(lower) && lower[j] == ' ' &&
			isDigit(lower[j+1]) && isDigit(lower[j+2]) && isDigit(lower[j+3]) &&
			(j+4 == len(lower) || !isDigit(lower[j+4]) && lower[j+4] != '.') {
			numStr += lower[j+1 : j+4]
			j += 4
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(numStr, "."), 64)
		if err == nil {
			if isLikelyYear(v, numStr) {
				if !haveYear {
					yearFallback, haveYear = v, true
				}
			} else {
				return v, true
			}
		}
		i = j
	}
	if haveYear {
		return yearFallback, true
	}
	return 0, false
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isLikelyYear(v float64, s string) bool {
	return len(s) == 4 && v == math.Trunc(v) && v >= 1900 && v <= 2099
}

// numberEndingAt parses the number whose last character is just before
// position end in s (e.g. the "3" in "3%" with end at the '%').
func numberEndingAt(s string, end int) (float64, bool) {
	j := end
	for j > 0 && (isDigit(s[j-1]) || s[j-1] == '.') {
		j--
	}
	if j == end {
		return 0, false
	}
	v, err := strconv.ParseFloat(s[j:end], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// vagueParameters maps vague quantifier words in general claims to
// domain-default parameters; the paper notes these are domain-specific
// (an "aggressive" energy-market growth differs from finance). The defaults
// here correspond to the energy domain of the use case and can be
// overridden through Lexicon.
var vagueParameters = map[string]struct {
	op    Op
	param float64
}{
	"aggressively":  {OpGt, 1.0},  // more than doubled
	"strongly":      {OpGt, 0.10}, // >10% growth
	"sharply":       {OpGt, 0.15},
	"rapidly":       {OpGt, 0.12},
	"significantly": {OpGt, 0.05},
	"moderately":    {OpGt, 0.02},
	"slightly":      {OpGt, 0.0},
	"scarcely":      {OpLt, 0.02},
	"marginally":    {OpLt, 0.03},
	"barely":        {OpLt, 0.02},
	"flat":          {OpEq, 0.0},
	"stable":        {OpEq, 0.0},
}

// Lexicon resolves vague quantifiers to (op, parameter) pairs for general
// claims. The zero value uses the built-in energy-domain defaults.
type Lexicon struct {
	overrides map[string]struct {
		op    Op
		param float64
	}
}

// Override installs a domain-specific meaning for a quantifier word.
func (l *Lexicon) Override(word string, op Op, param float64) {
	if l.overrides == nil {
		l.overrides = make(map[string]struct {
			op    Op
			param float64
		})
	}
	l.overrides[strings.ToLower(word)] = struct {
		op    Op
		param float64
	}{op, param}
}

// Resolve scans text for a known vague quantifier and returns its meaning.
func (l *Lexicon) Resolve(text string) (op Op, param float64, ok bool) {
	lower := strings.ToLower(text)
	for _, tok := range strings.FieldsFunc(lower, func(r rune) bool {
		return !(r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	}) {
		if l.overrides != nil {
			if m, found := l.overrides[tok]; found {
				return m.op, m.param, true
			}
		}
		if m, found := vagueParameters[tok]; found {
			return m.op, m.param, true
		}
	}
	return OpEq, 0, false
}

// Words returns the vague-quantifier vocabulary known to the lexicon
// (built-ins plus overrides), for use by text generators.
func (l *Lexicon) Words() []string {
	seen := map[string]bool{}
	var out []string
	for w := range vagueParameters {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	for w := range l.overrides {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}
