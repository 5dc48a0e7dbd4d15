// Package table implements the relational substrate of Scrutinizer: an
// in-memory store of small statistical tables like the Global Energy Demand
// fragment of the paper's Figure 1. Each relation has a single key attribute
// (e.g. "Index") whose values identify rows, plus a set of numeric value
// attributes (typically years like "2017" or aggregates like "Total").
//
// The statistical-check SQL fragment (paper Definition 3) only ever performs
// key-equality look-ups feeding arithmetic expressions, so the store is
// optimised for exactly that access path: O(1) row lookup by key and O(1)
// cell lookup by (key, attribute).
//
// Two access layers share the data. The string-keyed Relation/Corpus API is
// the compatibility façade: loading, mutation, and occasional look-ups go
// through it. Hot loops (compiled query plans, tentative execution in the
// query generator) instead resolve names once through the interned Index
// (see index.go) — relation/key/attribute → dense int IDs — and read cells
// as two slice indexes plus a presence-bitmask probe. Corpus.Index caches
// the interned snapshot and rebuilds it when Generation observes a
// mutation.
package table

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ErrNotFound is returned when a relation, row, attribute or cell does not
// exist. Callers use errors.Is to distinguish missing data from other
// failures.
var ErrNotFound = errors.New("table: not found")

// Relation is a single statistical table: a key column plus numeric value
// columns. Relations are immutable after construction except through AddRow
// and Set, which keep the internal indexes consistent.
type Relation struct {
	name     string
	keyAttr  string
	attrs    []string
	attrIdx  map[string]int
	rowKeys  []string
	rowIdx   map[string]int
	cells    [][]float64 // rows × attrs
	present  [][]bool    // whether a cell holds a value (NULL tracking)
	metadata map[string]string
	// owners are the corpora holding the relation: a row or cell mutation
	// advances each one's generation (index invalidation).
	owners []*Corpus
}

// NewRelation creates an empty relation with the given name, key attribute
// name and value attribute names. Attribute names must be unique and must
// not collide with the key attribute.
func NewRelation(name, keyAttr string, attrs []string) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("table: relation name must be non-empty")
	}
	if keyAttr == "" {
		return nil, fmt.Errorf("table: key attribute must be non-empty for relation %q", name)
	}
	r := &Relation{
		name:     name,
		keyAttr:  keyAttr,
		attrs:    append([]string(nil), attrs...),
		attrIdx:  make(map[string]int, len(attrs)),
		rowIdx:   make(map[string]int),
		metadata: make(map[string]string),
	}
	for i, a := range r.attrs {
		if a == keyAttr {
			return nil, fmt.Errorf("table: attribute %q collides with key attribute in relation %q", a, name)
		}
		if _, dup := r.attrIdx[a]; dup {
			return nil, fmt.Errorf("table: duplicate attribute %q in relation %q", a, name)
		}
		r.attrIdx[a] = i
	}
	return r, nil
}

// MustNewRelation is NewRelation for statically known-good inputs; it panics
// on error. Intended for tests and generators.
func MustNewRelation(name, keyAttr string, attrs []string) *Relation {
	r, err := NewRelation(name, keyAttr, attrs)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// KeyAttr returns the name of the key attribute.
func (r *Relation) KeyAttr() string { return r.keyAttr }

// Attrs returns the value attribute names in declaration order. The caller
// must not mutate the returned slice.
func (r *Relation) Attrs() []string { return r.attrs }

// HasAttr reports whether the relation has a value attribute named a.
func (r *Relation) HasAttr(a string) bool {
	_, ok := r.attrIdx[a]
	return ok
}

// Keys returns the row key values in insertion order. The caller must not
// mutate the returned slice.
func (r *Relation) Keys() []string { return r.rowKeys }

// HasKey reports whether a row with the given key exists.
func (r *Relation) HasKey(key string) bool {
	_, ok := r.rowIdx[key]
	return ok
}

// NumRows returns the number of rows.
func (r *Relation) NumRows() int { return len(r.rowKeys) }

// NumAttrs returns the number of value attributes.
func (r *Relation) NumAttrs() int { return len(r.attrs) }

// SetMeta attaches free-form metadata (e.g. unit, region) to the relation.
func (r *Relation) SetMeta(k, v string) { r.metadata[k] = v }

// Meta returns metadata value for k, or "".
func (r *Relation) Meta(k string) string { return r.metadata[k] }

// Metadata returns a copy of the relation's metadata map (nil when empty),
// in support of persisting relations losslessly — CSV carries the cells but
// not the metadata.
func (r *Relation) Metadata() map[string]string {
	if len(r.metadata) == 0 {
		return nil
	}
	cp := make(map[string]string, len(r.metadata))
	for k, v := range r.metadata {
		cp[k] = v
	}
	return cp
}

// AddRow appends a row with the given key and values (one per attribute, in
// attribute order). It fails on duplicate keys or arity mismatch.
func (r *Relation) AddRow(key string, values []float64) error {
	if key == "" {
		return fmt.Errorf("table: empty row key in relation %q", r.name)
	}
	if _, dup := r.rowIdx[key]; dup {
		return fmt.Errorf("table: duplicate row key %q in relation %q", key, r.name)
	}
	if len(values) != len(r.attrs) {
		return fmt.Errorf("table: row %q has %d values, relation %q has %d attributes",
			key, len(values), r.name, len(r.attrs))
	}
	r.rowIdx[key] = len(r.rowKeys)
	r.rowKeys = append(r.rowKeys, key)
	r.cells = append(r.cells, append([]float64(nil), values...))
	pres := make([]bool, len(values))
	for i := range pres {
		pres[i] = true
	}
	r.present = append(r.present, pres)
	r.touch()
	return nil
}

// AddSparseRow appends a row where only some attributes have values.
func (r *Relation) AddSparseRow(key string, values map[string]float64) error {
	if key == "" {
		return fmt.Errorf("table: empty row key in relation %q", r.name)
	}
	if _, dup := r.rowIdx[key]; dup {
		return fmt.Errorf("table: duplicate row key %q in relation %q", key, r.name)
	}
	row := make([]float64, len(r.attrs))
	pres := make([]bool, len(r.attrs))
	for a, v := range values {
		i, ok := r.attrIdx[a]
		if !ok {
			return fmt.Errorf("table: unknown attribute %q in relation %q", a, r.name)
		}
		row[i] = v
		pres[i] = true
	}
	r.rowIdx[key] = len(r.rowKeys)
	r.rowKeys = append(r.rowKeys, key)
	r.cells = append(r.cells, row)
	r.present = append(r.present, pres)
	r.touch()
	return nil
}

// Set overwrites a single cell. The row and attribute must already exist.
func (r *Relation) Set(key, attr string, v float64) error {
	ri, ok := r.rowIdx[key]
	if !ok {
		return fmt.Errorf("%w: row %q in relation %q", ErrNotFound, key, r.name)
	}
	ai, ok := r.attrIdx[attr]
	if !ok {
		return fmt.Errorf("%w: attribute %q in relation %q", ErrNotFound, attr, r.name)
	}
	r.cells[ri][ai] = v
	r.present[ri][ai] = true
	r.touch()
	return nil
}

// touch advances the generation of every corpus holding r.
func (r *Relation) touch() {
	for _, c := range r.owners {
		c.gen++
	}
}

// Get returns the value of the cell identified by (key, attr).
func (r *Relation) Get(key, attr string) (float64, error) {
	ri, ok := r.rowIdx[key]
	if !ok {
		return 0, fmt.Errorf("%w: row %q in relation %q", ErrNotFound, key, r.name)
	}
	ai, ok := r.attrIdx[attr]
	if !ok {
		return 0, fmt.Errorf("%w: attribute %q in relation %q", ErrNotFound, attr, r.name)
	}
	if !r.present[ri][ai] {
		return 0, fmt.Errorf("%w: cell (%q, %q) in relation %q is NULL", ErrNotFound, key, attr, r.name)
	}
	return r.cells[ri][ai], nil
}

// Row returns a copy of the values of the row with the given key, aligned
// with Attrs(); missing cells are reported through the second return value.
func (r *Relation) Row(key string) ([]float64, []bool, error) {
	ri, ok := r.rowIdx[key]
	if !ok {
		return nil, nil, fmt.Errorf("%w: row %q in relation %q", ErrNotFound, key, r.name)
	}
	return append([]float64(nil), r.cells[ri]...), append([]bool(nil), r.present[ri]...), nil
}

// Column returns the values of attribute attr for all rows that have it, in
// row order, together with the corresponding keys.
func (r *Relation) Column(attr string) (keys []string, values []float64, err error) {
	ai, ok := r.attrIdx[attr]
	if !ok {
		return nil, nil, fmt.Errorf("%w: attribute %q in relation %q", ErrNotFound, attr, r.name)
	}
	for ri, key := range r.rowKeys {
		if r.present[ri][ai] {
			keys = append(keys, key)
			values = append(values, r.cells[ri][ai])
		}
	}
	return keys, values, nil
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		name:     r.name,
		keyAttr:  r.keyAttr,
		attrs:    append([]string(nil), r.attrs...),
		attrIdx:  make(map[string]int, len(r.attrIdx)),
		rowKeys:  append([]string(nil), r.rowKeys...),
		rowIdx:   make(map[string]int, len(r.rowIdx)),
		cells:    make([][]float64, len(r.cells)),
		present:  make([][]bool, len(r.present)),
		metadata: make(map[string]string, len(r.metadata)),
	}
	for k, v := range r.attrIdx {
		c.attrIdx[k] = v
	}
	for k, v := range r.rowIdx {
		c.rowIdx[k] = v
	}
	for i := range r.cells {
		c.cells[i] = append([]float64(nil), r.cells[i]...)
		c.present[i] = append([]bool(nil), r.present[i]...)
	}
	for k, v := range r.metadata {
		c.metadata[k] = v
	}
	return c
}

// WriteCSV serialises the relation as CSV with the key attribute first.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{r.keyAttr}, r.attrs...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("table: writing header of %q: %w", r.name, err)
	}
	rec := make([]string, len(header))
	for ri, key := range r.rowKeys {
		rec[0] = key
		for ai := range r.attrs {
			if r.present[ri][ai] {
				rec[ai+1] = strconv.FormatFloat(r.cells[ri][ai], 'g', -1, 64)
			} else {
				rec[ai+1] = ""
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("table: writing row %q of %q: %w", key, r.name, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a relation from CSV. The first column is the key attribute;
// empty cells become NULLs.
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: reading header of %q: %w", name, err)
	}
	if len(header) < 1 {
		return nil, fmt.Errorf("table: relation %q has no columns", name)
	}
	rel, err := NewRelation(name, header[0], header[1:])
	if err != nil {
		return nil, err
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading %q line %d: %w", name, line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("table: %q line %d has %d fields, want %d", name, line, len(rec), len(header))
		}
		vals := make(map[string]float64, len(rec)-1)
		for i, cell := range rec[1:] {
			cell = strings.TrimSpace(cell)
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("table: %q line %d column %q: %w", name, line, header[i+1], err)
			}
			vals[header[i+1]] = v
		}
		if err := rel.AddSparseRow(rec[0], vals); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// Corpus is a named collection of relations — the set D of the problem
// statement. Lookup is by relation name.
type Corpus struct {
	byName map[string]*Relation
	names  []string
	gen    uint64     // mutation counter; see Generation
	idx    indexCache // lazily built interned snapshot (index.go)
}

// NewCorpus creates an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{byName: make(map[string]*Relation)}
}

// Add inserts a relation; duplicate names are rejected. A relation may be
// held by several corpora; mutating it advances every holder's
// generation, so Add must not race another Add or Remove of the same
// relation.
func (c *Corpus) Add(r *Relation) error {
	if r == nil {
		return fmt.Errorf("table: nil relation")
	}
	if _, dup := c.byName[r.Name()]; dup {
		return fmt.Errorf("table: duplicate relation %q in corpus", r.Name())
	}
	c.byName[r.Name()] = r
	c.names = append(c.names, r.Name())
	r.owners = append(r.owners, c)
	c.gen++
	return nil
}

// Remove deletes a relation by name, reporting whether it was present.
// Tenant corpora served long-term need this to retire stale tables;
// removal advances the corpus generation, so interned indexes and
// tentative-execution caches derived from the old contents rebuild on
// next use. Like Add, Remove must not race verification over the corpus.
func (c *Corpus) Remove(name string) bool {
	r, ok := c.byName[name]
	if !ok {
		return false
	}
	delete(c.byName, name)
	for i, n := range c.names {
		if n == name {
			c.names = append(c.names[:i], c.names[i+1:]...)
			break
		}
	}
	r.owners = slices.DeleteFunc(r.owners, func(o *Corpus) bool { return o == c })
	c.gen++
	return true
}

// Relation returns the relation with the given name.
func (c *Corpus) Relation(name string) (*Relation, error) {
	r, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: relation %q", ErrNotFound, name)
	}
	return r, nil
}

// Has reports whether the corpus contains a relation with the given name.
func (c *Corpus) Has(name string) bool {
	_, ok := c.byName[name]
	return ok
}

// Names returns relation names in insertion order. The caller must not
// mutate the returned slice.
func (c *Corpus) Names() []string { return c.names }

// Len returns the number of relations.
func (c *Corpus) Len() int { return len(c.names) }

// Get is a convenience for fetching a single cell across the corpus.
func (c *Corpus) Get(relation, key, attr string) (float64, error) {
	r, err := c.Relation(relation)
	if err != nil {
		return 0, err
	}
	return r.Get(key, attr)
}

// RelationsWithKey returns the names of all relations that contain the given
// row key, sorted. Query generation uses this to bind formula variables.
func (c *Corpus) RelationsWithKey(key string) []string {
	var out []string
	for _, n := range c.names {
		if c.byName[n].HasKey(key) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Stats summarises corpus-wide cardinalities for reporting.
type Stats struct {
	Relations int
	Rows      int
	Attrs     int
	Cells     int
}

// Stats computes corpus-wide cardinalities.
func (c *Corpus) Stats() Stats {
	var s Stats
	s.Relations = len(c.names)
	for _, n := range c.names {
		r := c.byName[n]
		s.Rows += r.NumRows()
		s.Attrs += r.NumAttrs()
		s.Cells += r.NumRows() * r.NumAttrs()
	}
	return s
}
