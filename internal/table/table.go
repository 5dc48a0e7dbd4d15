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
// Each relation stores its cells once, row-major in one flat slice with a
// presence bitmask for NULLs. Loading, mutation and occasional look-ups go
// through the string-keyed Relation/Corpus API; hot loops (compiled query
// plans, tentative execution) read the same cells through the interned
// Index (index.go), which Corpus.Index rebuilds when Generation moves.
package table

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// ErrNotFound is returned when a relation, row, attribute or cell does not
// exist. Callers use errors.Is to distinguish missing data from other
// failures.
var ErrNotFound = errors.New("table: not found")

// Relation is a single statistical table: a key column plus numeric value
// columns. Relations are immutable after construction except through
// AddRow, AddSparseRow and Set, which keep the internal indexes consistent.
type Relation struct {
	name    string
	keyAttr string
	attrs   []string
	attrIdx map[string]int32
	rowKeys []string
	rowIdx  map[string]int32
	cells   []float64 // row-major: cells[row*len(attrs)+col]
	mask    []uint64  // presence bitmask over cells (NULL tracking)
	// shared is set while an Index reads cells, mask and rowIdx in place:
	// the next row or cell mutation copies them first (own).
	shared   atomic.Bool
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
		attrIdx:  make(map[string]int32, len(attrs)),
		rowIdx:   make(map[string]int32),
		metadata: make(map[string]string),
	}
	for i, a := range r.attrs {
		if a == keyAttr {
			return nil, fmt.Errorf("table: attribute %q collides with key attribute in relation %q", a, name)
		}
		if _, dup := r.attrIdx[a]; dup {
			return nil, fmt.Errorf("table: duplicate attribute %q in relation %q", a, name)
		}
		r.attrIdx[a] = int32(i)
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
	if len(values) != len(r.attrs) {
		return fmt.Errorf("table: row %q has %d values, relation %q has %d attributes",
			key, len(values), r.name, len(r.attrs))
	}
	r.own()
	if err := r.addKey(key); err != nil {
		return err
	}
	base := r.growRow()
	copy(r.cells[base:], values)
	for i := range values {
		setBit(r.mask, base+i)
	}
	return nil
}

// AddSparseRow appends a row where only some attributes have values.
func (r *Relation) AddSparseRow(key string, values map[string]float64) error {
	for a := range values {
		if _, ok := r.attrIdx[a]; !ok {
			return fmt.Errorf("table: unknown attribute %q in relation %q", a, r.name)
		}
	}
	r.own()
	if err := r.addKey(key); err != nil {
		return err
	}
	base := r.growRow()
	for a, v := range values {
		i := base + int(r.attrIdx[a])
		r.cells[i] = v
		setBit(r.mask, i)
	}
	return nil
}

// addKey keys a new last row, whose cells the caller grows (growRow). It
// is the one place rows are keyed, so the key checks live here.
func (r *Relation) addKey(key string) error {
	if key == "" {
		return fmt.Errorf("table: empty row key in relation %q", r.name)
	}
	if _, dup := r.rowIdx[key]; dup {
		return fmt.Errorf("table: duplicate row key %q in relation %q", key, r.name)
	}
	r.rowIdx[key] = int32(len(r.rowKeys))
	r.rowKeys = append(r.rowKeys, key)
	r.touch()
	return nil
}

// growRow appends one row of NULL cells to the flat storage and returns
// the index of its first cell.
func (r *Relation) growRow() int {
	base := len(r.cells)
	r.cells = append(r.cells, make([]float64, len(r.attrs))...)
	for len(r.mask)*64 < len(r.cells) {
		r.mask = append(r.mask, 0)
	}
	return base
}

// own makes r's storage private before a write: while an Index shares it,
// the cells, mask and row map are copied first. The attribute map is
// never written after NewRelation.
func (r *Relation) own() {
	if !r.shared.Load() {
		return
	}
	r.cells = slices.Clone(r.cells)
	r.mask = slices.Clone(r.mask)
	r.rowIdx = maps.Clone(r.rowIdx)
	r.shared.Store(false)
}

// setBit and hasBit address a presence bitmask.
func setBit(mask []uint64, bit int) { mask[bit>>6] |= 1 << (uint(bit) & 63) }

func hasBit(mask []uint64, bit int) bool { return mask[bit>>6]&(1<<(uint(bit)&63)) != 0 }

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
	r.own()
	i := int(ri)*len(r.attrs) + int(ai)
	r.cells[i] = v
	setBit(r.mask, i)
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
	i := int(ri)*len(r.attrs) + int(ai)
	if !hasBit(r.mask, i) {
		return 0, fmt.Errorf("%w: cell (%q, %q) in relation %q is NULL", ErrNotFound, key, attr, r.name)
	}
	return r.cells[i], nil
}

// Row returns a copy of the values of the row with the given key, aligned
// with Attrs(); missing cells are reported through the second return value.
func (r *Relation) Row(key string) ([]float64, []bool, error) {
	ri, ok := r.rowIdx[key]
	if !ok {
		return nil, nil, fmt.Errorf("%w: row %q in relation %q", ErrNotFound, key, r.name)
	}
	base := int(ri) * len(r.attrs)
	pres := make([]bool, len(r.attrs))
	for i := range pres {
		pres[i] = hasBit(r.mask, base+i)
	}
	return slices.Clone(r.cells[base : base+len(r.attrs)]), pres, nil
}

// Column returns the values of attribute attr for all rows that have it, in
// row order, together with the corresponding keys.
func (r *Relation) Column(attr string) (keys []string, values []float64, err error) {
	ai, ok := r.attrIdx[attr]
	if !ok {
		return nil, nil, fmt.Errorf("%w: attribute %q in relation %q", ErrNotFound, attr, r.name)
	}
	for ri, key := range r.rowKeys {
		if i := ri*len(r.attrs) + int(ai); hasBit(r.mask, i) {
			keys = append(keys, key)
			values = append(values, r.cells[i])
		}
	}
	return keys, values, nil
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	return &Relation{
		name:     r.name,
		keyAttr:  r.keyAttr,
		attrs:    slices.Clone(r.attrs),
		attrIdx:  maps.Clone(r.attrIdx),
		rowKeys:  slices.Clone(r.rowKeys),
		rowIdx:   maps.Clone(r.rowIdx),
		cells:    slices.Clone(r.cells),
		mask:     slices.Clone(r.mask),
		metadata: maps.Clone(r.metadata),
	}
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
			if i := ri*len(r.attrs) + ai; hasBit(r.mask, i) {
				rec[ai+1] = strconv.FormatFloat(r.cells[i], 'g', -1, 64)
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
// empty cells become NULLs. Each row is parsed straight into the flat cell
// storage by header position, and its key is copied out of the CSV line:
// encoding/csv slices every field of a record out of one string, so a key
// left as read would keep its whole line alive for the relation's lifetime.
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
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
	// The reader reuses its record slice, so from here on the attribute
	// names come from rel, which copied them.
	attrs := rel.attrs
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading %q line %d: %w", name, line, err)
		}
		if len(rec) != len(attrs)+1 {
			return nil, fmt.Errorf("table: %q line %d has %d fields, want %d", name, line, len(rec), len(attrs)+1)
		}
		// The cells go in before the key is checked: a line with a bad
		// cell and a bad key reports the cell.
		base := rel.growRow()
		for i, cell := range rec[1:] {
			v, ok := parseCell(cell)
			if !ok {
				if cell = strings.TrimSpace(cell); cell == "" {
					continue
				}
				if v, err = strconv.ParseFloat(cell, 64); err != nil {
					return nil, fmt.Errorf("table: %q line %d column %q: %w", name, line, attrs[i], err)
				}
			}
			rel.cells[base+i] = v
			setBit(rel.mask, base+i)
		}
		if err := rel.addKey(strings.Clone(rec[0])); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// parseCell is ReadCSV's fast path for the cells WriteCSV writes:
// [+-]digits[.digits][(e|E)[+-]digits] with at most 19 digits, a mantissa
// below 2^53 and a decimal exponent within ±22. Both operands of m·10^e
// are then exact float64s (math.Pow10 is exact up to 10^22), so one IEEE
// multiply or divide rounds the exact value once, as strconv.ParseFloat
// does: the bits are the same. It declines (false) everything else —
// whitespace, longer mantissas, hex, inf, nan and malformed input — for
// strconv.ParseFloat to parse or refuse.
func parseCell(s string) (float64, bool) {
	i, neg := 0, strings.HasPrefix(s, "-")
	if neg || strings.HasPrefix(s, "+") {
		i = 1
	}
	var mant uint64
	n, dot := 0, -1 // digits read; digits before the point, if any
digits:
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			mant = mant*10 + uint64(c-'0')
			n++
		case c == '.' && n > 0 && dot < 0:
			dot = n
		default:
			break digits
		}
	}
	frac := 0
	if dot >= 0 {
		frac = n - dot
	}
	if n == 0 || n > 19 || mant >= 1<<53 || dot == n {
		return 0, false
	}
	exp := 0
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		var err error
		if exp, err = strconv.Atoi(s[i+1:]); err != nil {
			return 0, false
		}
		i = len(s)
	}
	e := exp - frac
	if i != len(s) || e < -22 || e > 22 {
		return 0, false
	}
	v := float64(mant)
	if e < 0 {
		v /= math.Pow10(-e)
	} else {
		v *= math.Pow10(e)
	}
	if neg {
		v = -v
	}
	return v, true
}

// Corpus is a named collection of relations — the set D of the problem
// statement. Lookup is by relation name.
type Corpus struct {
	byName map[string]*Relation
	names  []string
	gen    uint64                // mutation counter; see Generation
	idx    atomic.Pointer[Index] // lazily built interned snapshot (index.go)
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
