// Package textproc implements the claim-preprocessing text pipeline of the
// paper's Section 4.1 (Figure 4): tokenisation, word unigrams/bigrams,
// character trigrams, and TF-IDF vectorisation. Feature vectors are sparse
// and slice-backed (type Sparse: sorted parallel index/value slices built
// through SparseBuilder); the classifiers consume them directly. The older
// map-backed Vector type survives only as the reference implementation the
// equivalence tests compare Sparse against.
package textproc

import (
	"math"
	"sort"
	"strings"
)

// Tokenize lowercases the text and splits it into word tokens. Digits stay
// inside tokens ("2017" is a token; "22 200" is two tokens merged later by
// claim parsing). Punctuation separates tokens except '-' and '_' inside a
// word ("nine-fold" is one token).
func Tokenize(text string) []string {
	lower := strings.ToLower(text)
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for i, r := range lower {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_':
			cur.WriteRune(r)
		case r == '-' || r == '\'':
			// Keep intra-word hyphens/apostrophes: "nine-fold".
			if cur.Len() > 0 && i+1 < len(lower) && isWordRune(rune(lower[i+1])) {
				cur.WriteRune(r)
			} else {
				flush()
			}
		case r == '%':
			flush()
			toks = append(toks, "%")
		default:
			flush()
		}
	}
	flush()
	return toks
}

func isWordRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_'
}

// NGrams returns the word n-grams of tokens joined by '_'.
func NGrams(tokens []string, n int) []string {
	if n < 1 || len(tokens) < n {
		return nil
	}
	out := make([]string, 0, len(tokens)-n+1)
	for i := 0; i+n <= len(tokens); i++ {
		out = append(out, strings.Join(tokens[i:i+n], "_"))
	}
	return out
}

// CharNGrams returns the character n-grams of the lowercased text, spaces
// normalised. The paper uses every 3 characters of the claim.
func CharNGrams(text string, n int) []string {
	s := strings.Join(strings.Fields(strings.ToLower(text)), " ")
	if n < 1 || len(s) < n {
		return nil
	}
	out := make([]string, 0, len(s)-n+1)
	for i := 0; i+n <= len(s); i++ {
		out = append(out, s[i:i+n])
	}
	return out
}

// Vector is the original map-backed sparse vector: index -> weight. The
// production pipeline now runs entirely on the slice-backed Sparse type
// (see sparse.go); Vector is retained as the executable specification of
// the sparse-vector semantics — the property-based equivalence tests in
// sparse_test.go check every Sparse operation against it — and as a
// convenient literal syntax (Vector{...}.Sparse()) in tests.
type Vector map[int]float64

// Dot returns the inner product of two sparse vectors.
func (v Vector) Dot(o Vector) float64 {
	a, b := v, o
	if len(b) < len(a) {
		a, b = b, a
	}
	var s float64
	for i, x := range a {
		if y, ok := b[i]; ok {
			s += float64(x * y)
		}
	}
	return s
}

// Norm returns the L2 norm.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// Scale multiplies every weight in place and returns v.
func (v Vector) Scale(k float64) Vector {
	for i := range v {
		v[i] *= k
	}
	return v
}

// AddInto adds o (shifted by offset) into v.
func (v Vector) AddInto(o Vector, offset int) {
	for i, x := range o {
		v[i+offset] += x
	}
}

// Indices returns the nonzero indexes sorted ascending (deterministic
// iteration for tests and serialisation).
func (v Vector) Indices() []int {
	out := make([]int, 0, len(v))
	for i := range v {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Vectorizer maps token multisets to TF-IDF weighted sparse vectors over a
// vocabulary learned from a corpus. Unknown tokens at transform time are
// ignored.
type Vectorizer struct {
	vocab map[string]int
	idf   []float64
	nDocs int
	// config
	minDF int
}

// NewVectorizer creates a vectorizer that keeps terms appearing in at least
// minDF documents (minDF < 1 is treated as 1).
func NewVectorizer(minDF int) *Vectorizer {
	if minDF < 1 {
		minDF = 1
	}
	return &Vectorizer{vocab: make(map[string]int), minDF: minDF}
}

// Fit learns vocabulary and IDF weights from documents, each given as a
// token slice (the caller chooses the tokenisation: words, n-grams, char
// n-grams or a concatenation).
func (vz *Vectorizer) Fit(docs [][]string) {
	df := make(map[string]int)
	for _, doc := range docs {
		seen := make(map[string]bool, len(doc))
		for _, tok := range doc {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	vz.nDocs = len(docs)
	// Deterministic vocabulary order: sorted terms above the DF cutoff.
	terms := make([]string, 0, len(df))
	for t, d := range df {
		if d >= vz.minDF {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	vz.vocab = make(map[string]int, len(terms))
	vz.idf = make([]float64, len(terms))
	for i, t := range terms {
		vz.vocab[t] = i
		// Smoothed IDF, as in standard TF-IDF implementations.
		vz.idf[i] = math.Log((1+float64(vz.nDocs))/(1+float64(df[t]))) + 1
	}
}

// Dim returns the vocabulary size.
func (vz *Vectorizer) Dim() int { return len(vz.vocab) }

// VocabIndex returns the feature index of a term, or -1.
func (vz *Vectorizer) VocabIndex(term string) int {
	if i, ok := vz.vocab[term]; ok {
		return i
	}
	return -1
}

// Transform converts a token slice to an L2-normalised TF-IDF vector. The
// term-frequency accumulation runs through a SparseBuilder instead of the
// two throwaway maps the map-vector version allocated per call.
func (vz *Vectorizer) Transform(doc []string) Sparse {
	var b SparseBuilder
	for _, tok := range doc {
		if i, ok := vz.vocab[tok]; ok {
			b.Add(i, 1)
		}
	}
	v := b.Build() // sorted unique term counts
	_, vals := v.Raw()
	for k := range vals {
		vals[k] *= vz.idf[v.Index(k)]
	}
	if n := v.Norm(); n > 0 {
		v.Scale(1 / n)
	}
	return v
}

// FitTransform fits on docs and returns their vectors.
func (vz *Vectorizer) FitTransform(docs [][]string) []Sparse {
	vz.Fit(docs)
	out := make([]Sparse, len(docs))
	for i, d := range docs {
		out[i] = vz.Transform(d)
	}
	return out
}

// ClaimTokens produces the token multiset the paper feeds into TF-IDF for a
// claim: word unigrams, word bigrams and character trigrams, namespaced so
// they cannot collide across feature families.
func ClaimTokens(claim string) []string {
	words := Tokenize(claim)
	var out []string
	for _, w := range words {
		out = append(out, "w:"+w)
	}
	for _, b := range NGrams(words, 2) {
		out = append(out, "b:"+b)
	}
	for _, c := range CharNGrams(claim, 3) {
		out = append(out, "c:"+c)
	}
	return out
}

// CosineSimilarity returns the cosine of the angle between two map-backed
// reference vectors, or 0 if either is zero. Production code uses Cosine on
// Sparse vectors.
func CosineSimilarity(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}
