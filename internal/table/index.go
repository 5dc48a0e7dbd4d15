package table

import "slices"

// This file implements the interned view of a corpus that the compiled
// query engine executes against. Every relation gets a dense ID, and
// within it every row key and value attribute a dense row or column ID in
// declaration order, so a resolved look-up (relID, rowID, colID) is two
// slice indexes plus a presence-bitmask probe, and query generation
// enumerates candidate assignments as integer tuples with no strings.
//
// The Index is a view, not a copy: it reads each relation's cells, bitmask
// and key maps in place, so a build costs O(relations). It stays an
// immutable snapshot through copy-on-write: BuildIndex marks each relation
// shared, and the first row or cell mutation of a shared relation copies
// its storage and row map before writing (Relation.own). Its slices are
// capped at the build's size and RowID refuses IDs past its row count, so
// nothing a relation gains later shows through. Replacing a relation
// (Remove + Add, as the service's relation PUT does) copies nothing.

// CellCoord is a fully resolved cell address: interned relation, row and
// column IDs.
type CellCoord struct {
	Rel, Row, Col int32
}

// indexedRel is one relation's snapshot: its storage and row map, cut to
// the size they had when the Index was built.
type indexedRel struct {
	rel   *Relation
	rowID map[string]int32
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
// generation, sharing each relation's storage. Prefer Corpus.Index, which
// caches the snapshot and rebuilds only after mutations.
func BuildIndex(c *Corpus) *Index {
	ix := &Index{
		gen:   c.Generation(),
		relID: make(map[string]int32, len(c.names)),
		rels:  make([]indexedRel, 0, len(c.names)),
	}
	for _, name := range c.names {
		r := c.byName[name]
		r.shared.Store(true)
		ix.relID[name] = int32(len(ix.rels))
		ix.rels = append(ix.rels, indexedRel{
			rel:   r,
			rowID: r.rowIdx,
			nCols: int32(len(r.attrs)),
			nRows: int32(len(r.rowKeys)),
			cells: slices.Clip(r.cells),
			mask:  slices.Clip(r.mask),
		})
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

// RowID resolves a row key within a relation to its interned row ID. A
// key added after the snapshot was built is not in it.
func (ix *Index) RowID(rel int32, key string) (int32, bool) {
	ir := &ix.rels[rel]
	id, ok := ir.rowID[key]
	if !ok || id >= ir.nRows {
		return 0, false
	}
	return id, true
}

// ColID resolves a value-attribute label within a relation to its interned
// column ID. A relation's attributes never change.
func (ix *Index) ColID(rel int32, attr string) (int32, bool) {
	id, ok := ix.rels[rel].rel.attrIdx[attr]
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
	if !hasBit(ir.mask, bit) {
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
// relations are loaded before verification starts. The steady-state path
// is a lock-free atomic load plus a generation compare. Readers that find
// the snapshot stale at once each build one; a build copies no cells, and
// the builds are equal, so the last stored wins.
func (c *Corpus) Index() *Index {
	if ix := c.idx.Load(); ix != nil && ix.gen == c.Generation() {
		return ix
	}
	ix := BuildIndex(c)
	c.idx.Store(ix)
	return ix
}
