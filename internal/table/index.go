package table

import (
	"sync"
	"sync/atomic"
)

// This file implements the interned, columnar view of a corpus that the
// compiled query engine executes against. The string-keyed Relation / Corpus
// API stays the compatibility façade for loading, mutation and ad-hoc
// look-ups; the Index is the read path the hot loops use.
//
// Interning model:
//
//   - every relation gets a dense ID in [0, NumRelations)
//   - within a relation, every row key gets a dense row ID and every value
//     attribute a dense column ID (both in declaration order, matching
//     Relation.Keys / Relation.Attrs)
//
// A resolved look-up (relID, rowID, colID) is then two slice indexes — one
// into the relation table, one into that relation's flat row-major cell
// array — plus a presence-bitmask probe for NULL tracking. Names are
// resolved to IDs exactly once, outside the loop that needs them; this is
// what lets query generation enumerate candidate assignments as integer
// tuples with no string handling at all.
//
// An Index is an immutable snapshot: it is safe for unsynchronised
// concurrent readers, and it records the corpus generation it was built
// from so Corpus.Index can rebuild lazily after mutations.

// CellCoord is a fully resolved cell address: interned relation, row and
// column IDs.
type CellCoord struct {
	Rel, Row, Col int32
}

// indexedRel is one relation's interned snapshot.
type indexedRel struct {
	rel   *Relation
	rowID map[string]int32
	colID map[string]int32
	nCols int32
	nRows int32
	cells []float64 // row-major: cells[row*nCols+col]
	mask  []uint64  // presence bitmask over the same flat space
}

// Index is the interned, columnar snapshot of a corpus.
type Index struct {
	gen   uint64
	relID map[string]int32
	rels  []indexedRel
}

// IndexStats summarises interner cardinalities for monitoring.
type IndexStats struct {
	// Generation is the corpus generation the index was built from.
	Generation uint64
	// Relations, Rows, Cols count interned IDs (rows and cols summed over
	// relations); Cells counts addressable cells.
	Relations int
	Rows      int
	Cols      int
	Cells     int
}

// BuildIndex makes an interned snapshot of the corpus at its current
// generation. Prefer Corpus.Index, which caches the snapshot and rebuilds
// only after mutations.
func BuildIndex(c *Corpus) *Index {
	ix := &Index{
		gen:   c.Generation(),
		relID: make(map[string]int32, len(c.names)),
	}
	for _, name := range c.names {
		r := c.byName[name]
		ir := indexedRel{
			rel:   r,
			rowID: make(map[string]int32, len(r.rowKeys)),
			colID: make(map[string]int32, len(r.attrs)),
			nCols: int32(len(r.attrs)),
			nRows: int32(len(r.rowKeys)),
		}
		for i, k := range r.rowKeys {
			ir.rowID[k] = int32(i)
		}
		for i, a := range r.attrs {
			ir.colID[a] = int32(i)
		}
		flat := len(r.rowKeys) * len(r.attrs)
		ir.cells = make([]float64, flat)
		ir.mask = make([]uint64, (flat+63)/64)
		for ri := range r.cells {
			base := ri * int(ir.nCols)
			copy(ir.cells[base:base+int(ir.nCols)], r.cells[ri])
			for ci, ok := range r.present[ri] {
				if ok {
					bit := base + ci
					ir.mask[bit>>6] |= 1 << (uint(bit) & 63)
				}
			}
		}
		ix.relID[name] = int32(len(ix.rels))
		ix.rels = append(ix.rels, ir)
	}
	return ix
}

// Generation returns the corpus generation the index snapshots.
func (ix *Index) Generation() uint64 { return ix.gen }

// NumRelations returns the number of interned relations.
func (ix *Index) NumRelations() int { return len(ix.rels) }

// RelID resolves a relation name to its interned ID.
func (ix *Index) RelID(name string) (int32, bool) {
	id, ok := ix.relID[name]
	return id, ok
}

// RowID resolves a row key within a relation to its interned row ID.
func (ix *Index) RowID(rel int32, key string) (int32, bool) {
	id, ok := ix.rels[rel].rowID[key]
	return id, ok
}

// ColID resolves a value-attribute label within a relation to its interned
// column ID.
func (ix *Index) ColID(rel int32, attr string) (int32, bool) {
	id, ok := ix.rels[rel].colID[attr]
	return id, ok
}

// Relation returns the underlying relation for an interned ID.
func (ix *Index) Relation(rel int32) *Relation { return ix.rels[rel].rel }

// NumRows returns the row count of an interned relation.
func (ix *Index) NumRows(rel int32) int { return int(ix.rels[rel].nRows) }

// NumCols returns the value-attribute count of an interned relation.
func (ix *Index) NumCols(rel int32) int { return int(ix.rels[rel].nCols) }

// Cell returns the value at a fully resolved coordinate. The second result
// is false for NULL cells. Callers must pass IDs previously resolved
// through RelID / RowID / ColID; the only per-call work is two slice
// indexes and a bitmask probe.
func (ix *Index) Cell(rel, row, col int32) (float64, bool) {
	ir := &ix.rels[rel]
	bit := int(row)*int(ir.nCols) + int(col)
	if ir.mask[bit>>6]&(1<<(uint(bit)&63)) == 0 {
		return 0, false
	}
	return ir.cells[bit], true
}

// CellAt is Cell for a CellCoord.
func (ix *Index) CellAt(cc CellCoord) (float64, bool) {
	return ix.Cell(cc.Rel, cc.Row, cc.Col)
}

// Stats reports interner cardinalities.
func (ix *Index) Stats() IndexStats {
	s := IndexStats{Generation: ix.gen, Relations: len(ix.rels)}
	for i := range ix.rels {
		s.Rows += int(ix.rels[i].nRows)
		s.Cols += int(ix.rels[i].nCols)
		s.Cells += int(ix.rels[i].nRows) * int(ix.rels[i].nCols)
	}
	return s
}

// indexCache is the lazily built Index attached to a Corpus. The current
// snapshot hangs off an atomic pointer so concurrent readers validate and
// fetch it without a lock; the mutex serializes rebuilds only (so a
// generation change triggers one BuildIndex, not a thundering herd).
type indexCache struct {
	mu   sync.Mutex
	snap atomic.Pointer[Index]
}

// Generation reports the corpus mutation generation: it advances whenever a
// relation is added or removed or any held relation's rows/cells change,
// and never goes back. Consumers that cache work derived from corpus
// contents (the Index itself, memoized tentative-execution results in the
// query generator) key their caches by this value. It is one counter
// that those mutations bump, so reading it is O(1).
func (c *Corpus) Generation() uint64 { return c.gen }

// Index returns the interned snapshot of the corpus, building it on first
// use and rebuilding after mutations (detected through Generation). The
// returned Index is immutable and safe for concurrent readers; Index itself
// must not race with corpus mutation, mirroring the existing contract that
// relations are loaded before verification starts.
//
// The steady-state path — every query-generation call from every
// concurrent run over the corpus — is a lock-free atomic load plus a
// generation compare; the rebuild mutex is touched only when the snapshot
// is missing or stale, so readers never serialize on it.
func (c *Corpus) Index() *Index {
	gen := c.Generation()
	if ix := c.idx.snap.Load(); ix != nil && ix.gen == gen {
		return ix
	}
	c.idx.mu.Lock()
	defer c.idx.mu.Unlock()
	if ix := c.idx.snap.Load(); ix != nil && ix.gen == gen {
		return ix
	}
	ix := BuildIndex(c)
	c.idx.snap.Store(ix)
	return ix
}
