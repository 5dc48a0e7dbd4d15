// Package embed trains word embeddings from the document corpus itself,
// substituting for the pre-trained GloVe vectors used in the paper (not
// shippable here). The method is classical and stdlib-only:
//
//  1. build a word–word co-occurrence matrix over a sliding window,
//  2. weight it by positive pointwise mutual information (PPMI),
//  3. project the sparse PPMI rows to a low dimension with a seeded random
//     projection (a Johnson–Lindenstrauss map).
//
// The resulting vectors place distributionally similar words near each
// other, which is the only property the downstream feature pipeline
// (averaged sentence embedding, Figure 4) relies on.
package embed

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"github.com/repro/scrutinizer/internal/textproc"
)

// Config controls embedding training.
type Config struct {
	// Dim is the embedding dimension (paper-scale GloVe uses 50–300; the
	// default here is 64).
	Dim int
	// Window is the co-occurrence window radius in tokens (default 4).
	Window int
	// MinCount drops words seen fewer times (default 2).
	MinCount int
	// Seed drives the random projection; fixed seed -> reproducible
	// embeddings.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 64
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.MinCount <= 0 {
		c.MinCount = 2
	}
	return c
}

// cooc is one co-occurrence event — or, after compaction, the accumulated
// weight of one distinct (word, context) pair.
type cooc struct {
	w, c int32
	wgt  float64
}

// compactCooc sorts triplets by (word, context) and merges duplicate pairs
// in place, returning the shortened slice. Train calls it periodically so
// the accumulation buffer stays proportional to distinct pairs, not total
// co-occurrence events.
func compactCooc(trips []cooc) []cooc {
	slices.SortFunc(trips, func(a, b cooc) int {
		if a.w != b.w {
			return int(a.w) - int(b.w)
		}
		return int(a.c) - int(b.c)
	})
	out := trips[:0]
	for k := 0; k < len(trips); {
		cur := trips[k]
		k++
		for k < len(trips) && trips[k].w == cur.w && trips[k].c == cur.c {
			cur.wgt += trips[k].wgt
			k++
		}
		out = append(out, cur)
	}
	return out
}

// Model holds trained word vectors.
type Model struct {
	dim   int
	vocab map[string]int
	vecs  [][]float64
}

// Train builds embeddings from sentences (raw text; tokenisation uses
// textproc.Tokenize).
func Train(sentences []string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(sentences) == 0 {
		return nil, fmt.Errorf("embed: no sentences to train on")
	}

	// Pass 1: vocabulary with counts.
	counts := make(map[string]int)
	tokenised := make([][]string, len(sentences))
	for i, s := range sentences {
		toks := textproc.Tokenize(s)
		tokenised[i] = toks
		for _, t := range toks {
			counts[t]++
		}
	}
	words := make([]string, 0, len(counts))
	for w, c := range counts {
		if c >= cfg.MinCount {
			words = append(words, w)
		}
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("embed: vocabulary empty after MinCount=%d filter", cfg.MinCount)
	}
	sort.Strings(words)
	vocab := make(map[string]int, len(words))
	for i, w := range words {
		vocab[w] = i
	}

	// Pass 2: co-occurrence counts within the window, distance-weighted
	// 1/d as in GloVe. Pairs are accumulated as flat (word, context,
	// weight) triplets in one growing slice instead of a hash map — the
	// hot loop is a pure append, and sorting both merges duplicates and
	// fixes the deterministic iteration order the projection pass needs
	// (the map version had to extract and sort its keys anyway). So that
	// peak memory tracks the number of distinct pairs rather than total
	// co-occurrence events (corpus-length-bound at FEVER scale), the
	// slice is compacted in place — sort + merge — whenever it doubles
	// past the last compacted size.
	var trips []cooc
	compactAt := 1 << 16
	rowSum := make([]float64, len(words))
	var total float64
	for _, toks := range tokenised {
		for i, w := range toks {
			wi, ok := vocab[w]
			if !ok {
				continue
			}
			for j := i + 1; j < len(toks) && j <= i+cfg.Window; j++ {
				cj, ok := vocab[toks[j]]
				if !ok {
					continue
				}
				wgt := 1.0 / float64(j-i)
				trips = append(trips,
					cooc{int32(wi), int32(cj), wgt},
					cooc{int32(cj), int32(wi), wgt})
				rowSum[wi] += wgt
				rowSum[cj] += wgt
				total += 2 * wgt
			}
		}
		if len(trips) >= compactAt {
			trips = compactCooc(trips)
			if next := 2 * len(trips); next > compactAt {
				compactAt = next
			}
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("embed: no co-occurrences (sentences too short?)")
	}
	trips = compactCooc(trips)

	// Pass 3: PPMI rows projected through a seeded sparse random
	// projection. Each vocabulary word's context dimension gets a random
	// ±1/sqrt(dim) direction; a word vector is the PPMI-weighted sum of
	// its context words' directions.
	rng := rand.New(rand.NewSource(cfg.Seed))
	proj := make([][]float64, len(words))
	for i := range proj {
		row := make([]float64, cfg.Dim)
		for d := range row {
			if rng.Intn(2) == 0 {
				row[d] = 1 / math.Sqrt(float64(cfg.Dim))
			} else {
				row[d] = -1 / math.Sqrt(float64(cfg.Dim))
			}
		}
		proj[i] = row
	}
	vecs := make([][]float64, len(words))
	for i := range vecs {
		vecs[i] = make([]float64, cfg.Dim)
	}
	// trips is compacted: one entry per distinct (word, context) pair, in
	// sorted order, which keeps floating-point accumulation deterministic
	// across runs.
	for _, t := range trips {
		pmi := math.Log(t.wgt * total / (rowSum[t.w] * rowSum[t.c]))
		if pmi <= 0 {
			continue
		}
		pr := proj[t.c]
		vw := vecs[t.w]
		for d := range vw {
			vw[d] += float64(pmi * pr[d])
		}
	}
	// L2-normalise non-zero vectors.
	for i := range vecs {
		var n float64
		for _, x := range vecs[i] {
			n += float64(x * x)
		}
		if n > 0 {
			n = math.Sqrt(n)
			for d := range vecs[i] {
				vecs[i][d] /= n
			}
		}
	}
	return &Model{dim: cfg.Dim, vocab: vocab, vecs: vecs}, nil
}

// Dim returns the embedding dimension.
func (m *Model) Dim() int { return m.dim }

// VocabSize returns the number of embedded words.
func (m *Model) VocabSize() int { return len(m.vocab) }

// Has reports whether the model has a vector for word.
func (m *Model) Has(word string) bool {
	_, ok := m.vocab[word]
	return ok
}

// Vector returns the embedding of word, or nil if unknown. The caller must
// not mutate the returned slice.
func (m *Model) Vector(word string) []float64 {
	i, ok := m.vocab[word]
	if !ok {
		return nil
	}
	return m.vecs[i]
}

// SentenceVector returns the mean of the word vectors of the sentence's
// tokens (the paper: "to get the embedding of a sentence, we average the
// embedding of each word"). Unknown words are skipped; an all-unknown
// sentence yields the zero vector.
func (m *Model) SentenceVector(sentence string) []float64 {
	out := make([]float64, m.dim)
	n := 0
	for _, tok := range textproc.Tokenize(sentence) {
		if v := m.Vector(tok); v != nil {
			for d := range out {
				out[d] += v[d]
			}
			n++
		}
	}
	if n > 0 {
		for d := range out {
			out[d] /= float64(n)
		}
	}
	return out
}

// Similarity returns the cosine similarity between two words' vectors, or 0
// when either is unknown.
func (m *Model) Similarity(a, b string) float64 {
	va, vb := m.Vector(a), m.Vector(b)
	if va == nil || vb == nil {
		return 0
	}
	var dot, na, nb float64
	for d := range va {
		dot += float64(va[d] * vb[d])
		na += float64(va[d] * va[d])
		nb += float64(vb[d] * vb[d])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Nearest returns the k words most similar to word (excluding itself),
// sorted by descending similarity with lexicographic tie-break.
func (m *Model) Nearest(word string, k int) []string {
	v := m.Vector(word)
	if v == nil || k <= 0 {
		return nil
	}
	type scored struct {
		w string
		s float64
	}
	var all []scored
	for w := range m.vocab {
		if w == word {
			continue
		}
		all = append(all, scored{w, m.Similarity(word, w)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].w < all[j].w
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].w
	}
	return out
}
