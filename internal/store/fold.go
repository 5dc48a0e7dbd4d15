package store

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Fold is the journal's liveness rule, the one place that knows which
// records survive: recovery folds a journal to find what to rebuild, and
// compaction to find what to keep. Fed records in journal order, it keeps
// a corpus's create and the relation puts and deletes that followed
// until the corpus is deleted; a verifier's create until the verifier or
// its corpus is deleted; a session's create and answers until the
// session is deleted. A session outlives its verifier here, as in
// journals of builds that did not end sessions with their verifier:
// recovery counts it skipped. Deletes, answers of unknown sessions,
// relation deletes on unknown corpora and watermarks are never kept.
//
// The fold also carries the ID watermark: the highest minted "c<n>"
// corpus and "v<n>" verifier numbers seen, deleted IDs included, so a
// restart never mints a deleted ID again. A compacted journal carries it
// in its first record, an OpWatermark.
//
// T is what the caller keeps of each record: recovery keeps the record
// itself, compaction the frame's place in the file. A dropped record's T
// is released at once.
type Fold[T any] struct {
	recs      []foldEntry[T] // every record folded, in journal order
	live      int64
	corpora   map[string][]int // a corpus's records, by place in recs
	verifiers map[string]foldVerifier
	sessions  map[string][]int // a session's create and answers
	mark      WatermarkPayload
}

// foldEntry is one folded record; a dropped one is zeroed.
type foldEntry[T any] struct {
	kept bool
	size int64
	v    T
}

type foldVerifier struct {
	corpus string
	at     int
}

// NewFold returns the fold of an empty journal.
func NewFold[T any]() *Fold[T] {
	return &Fold[T]{
		corpora:   make(map[string][]int),
		verifiers: make(map[string]foldVerifier),
		sessions:  make(map[string][]int),
	}
}

// Add folds the next record, whose frame is size bytes long (callers that
// do not count bytes pass 0), keeping v while the record survives. A
// record that no journal Append could have written in that place — a
// corpus created twice, a relation put or verifier on an unknown corpus,
// an unknown op — is an error, and the fold is not usable after it.
func (f *Fold[T]) Add(rec *Record, size int64, v T) error {
	at := len(f.recs)
	switch rec.Op {
	case OpCorpusCreate:
		if _, dup := f.corpora[rec.Corpus]; dup {
			return fmt.Errorf("corpus %q created twice", rec.Corpus)
		}
		f.corpora[rec.Corpus] = []int{at}
		bumpSeq(&f.mark.Corpus, rec.Corpus, 'c')

	case OpCorpusDelete:
		f.drop(f.corpora[rec.Corpus]...)
		delete(f.corpora, rec.Corpus)
		// The live RemoveCorpus cascades over the corpus's verifiers.
		for id, fv := range f.verifiers {
			if fv.corpus == rec.Corpus {
				f.drop(fv.at)
				delete(f.verifiers, id)
			}
		}
		return f.skip()

	case OpRelationPut:
		recs, ok := f.corpora[rec.Corpus]
		if !ok {
			return fmt.Errorf("relation put on unknown corpus %q", rec.Corpus)
		}
		f.corpora[rec.Corpus] = append(recs, at)

	case OpRelationDelete:
		recs, ok := f.corpora[rec.Corpus]
		if !ok {
			return f.skip()
		}
		f.corpora[rec.Corpus] = append(recs, at)

	case OpVerifierCreate:
		if _, ok := f.corpora[rec.Corpus]; !ok {
			return fmt.Errorf("verifier %q on unknown corpus %q", rec.Verifier, rec.Corpus)
		}
		if fv, ok := f.verifiers[rec.Verifier]; ok {
			f.drop(fv.at)
		}
		f.verifiers[rec.Verifier] = foldVerifier{corpus: rec.Corpus, at: at}
		bumpSeq(&f.mark.Verifier, rec.Verifier, 'v')

	case OpVerifierDelete:
		if fv, ok := f.verifiers[rec.Verifier]; ok {
			f.drop(fv.at)
			delete(f.verifiers, rec.Verifier)
		}
		return f.skip()

	case OpSessionCreate:
		f.drop(f.sessions[rec.Session]...)
		f.sessions[rec.Session] = []int{at}

	case OpSessionAnswer:
		recs, ok := f.sessions[rec.Session]
		if !ok {
			// The session was already deleted (answers race the delete
			// only across sessions, never within one) or its create
			// never committed; either way nothing to apply.
			return f.skip()
		}
		f.sessions[rec.Session] = append(recs, at)

	case OpSessionDelete:
		// Explicit delete or TTL eviction. Unknown IDs are tolerated (a
		// create whose journal append failed after the registry accepted
		// it was rolled back, but its delete may still have committed).
		f.drop(f.sessions[rec.Session]...)
		delete(f.sessions, rec.Session)
		return f.skip()

	case OpWatermark:
		var w WatermarkPayload
		if err := json.Unmarshal(rec.Payload, &w); err != nil {
			return fmt.Errorf("watermark payload: %w", err)
		}
		f.mark.Corpus = max(f.mark.Corpus, w.Corpus)
		f.mark.Verifier = max(f.mark.Verifier, w.Verifier)
		return f.skip()

	default:
		return fmt.Errorf("unknown journal op %q", rec.Op)
	}
	f.recs = append(f.recs, foldEntry[T]{kept: true, size: size, v: v})
	f.live += size
	return nil
}

// skip folds a record that is not kept.
func (f *Fold[T]) skip() error {
	f.recs = append(f.recs, foldEntry[T]{})
	return nil
}

// drop releases the records at the given places.
func (f *Fold[T]) drop(at ...int) {
	for _, i := range at {
		f.live -= f.recs[i].size
		f.recs[i] = foldEntry[T]{}
	}
}

// Live returns what the caller kept of each surviving record, in journal
// order.
func (f *Fold[T]) Live() []T {
	var out []T
	for _, e := range f.recs {
		if e.kept {
			out = append(out, e.v)
		}
	}
	return out
}

// LiveBytes is the summed size of the surviving records' frames.
func (f *Fold[T]) LiveBytes() int64 { return f.live }

// Watermark returns the highest corpus and verifier numbers minted in the
// folded journal.
func (f *Fold[T]) Watermark() WatermarkPayload { return f.mark }

// bumpSeq advances a mint counter past a "c7"/"v12"-style ID so minting
// after a restart never reuses it.
func bumpSeq(seq *uint64, id string, prefix byte) {
	if len(id) < 2 || id[0] != prefix {
		return
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err == nil && n > *seq {
		*seq = n
	}
}
