package table

import (
	"errors"
	"strconv"
	"testing"
)

func indexFixture(t testing.TB) *Corpus {
	t.Helper()
	c := NewCorpus()
	ged := MustNewRelation("GED", "Index", []string{"2016", "2017", "Total"})
	if err := ged.AddRow("PGElecDemand", []float64{21546, 22209, 43755}); err != nil {
		t.Fatal(err)
	}
	if err := ged.AddSparseRow("CapAddTotal_Wind", map[string]float64{"2017": 540}); err != nil {
		t.Fatal(err)
	}
	fin := MustNewRelation("Fin", "Index", []string{"2017"})
	if err := fin.AddRow("Revenue", []float64{1200}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Relation{ged, fin} {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestIndexLookupsMatchFacade(t *testing.T) {
	c := indexFixture(t)
	ix := c.Index()
	for _, rn := range c.Names() {
		rel, err := c.Relation(rn)
		if err != nil {
			t.Fatal(err)
		}
		rid, ok := ix.RelID(rn)
		if !ok {
			t.Fatalf("relation %q not interned", rn)
		}
		if ix.Relation(rid) != rel {
			t.Fatalf("Relation(%d) mismatch", rid)
		}
		if ix.NumRows(rid) != rel.NumRows() || ix.NumCols(rid) != rel.NumAttrs() {
			t.Fatalf("dims mismatch for %q", rn)
		}
		for _, key := range rel.Keys() {
			row, ok := ix.RowID(rid, key)
			if !ok {
				t.Fatalf("row %q not interned", key)
			}
			for _, attr := range rel.Attrs() {
				col, ok := ix.ColID(rid, attr)
				if !ok {
					t.Fatalf("col %q not interned", attr)
				}
				want, werr := rel.Get(key, attr)
				got, present := ix.Cell(rid, row, col)
				if present != (werr == nil) {
					t.Fatalf("presence mismatch at %s/%s/%s: %v vs err %v", rn, key, attr, present, werr)
				}
				if werr == nil && got != want {
					t.Fatalf("value mismatch at %s/%s/%s: %v vs %v", rn, key, attr, got, want)
				}
				if v2, p2 := ix.CellAt(CellCoord{Rel: rid, Row: row, Col: col}); v2 != got || p2 != present {
					t.Fatal("CellAt disagrees with Cell")
				}
			}
		}
	}
	if _, ok := ix.RelID("NoSuchRelation"); ok {
		t.Error("unknown relation interned")
	}
	s := ix.Stats()
	if s.Relations != 2 || s.Rows != 3 || s.Cols != 4 || s.Cells != 7 {
		t.Errorf("stats = %+v", s)
	}
}

func TestIndexCacheInvalidation(t *testing.T) {
	c := indexFixture(t)
	ix1 := c.Index()
	if c.Index() != ix1 {
		t.Fatal("unchanged corpus rebuilt its index")
	}
	gen := c.Generation()

	rel, err := c.Relation("GED")
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Set("CapAddTotal_Wind", "2016", 500); err != nil {
		t.Fatal(err)
	}
	if c.Generation() == gen {
		t.Fatal("Set did not advance the generation")
	}
	ix2 := c.Index()
	if ix2 == ix1 {
		t.Fatal("mutation did not rebuild the index")
	}
	rid, _ := ix2.RelID("GED")
	row, _ := ix2.RowID(rid, "CapAddTotal_Wind")
	col, _ := ix2.ColID(rid, "2016")
	if v, ok := ix2.Cell(rid, row, col); !ok || v != 500 {
		t.Fatalf("rebuilt index missing new cell: %v %v", v, ok)
	}
	// The old snapshot is unaffected (immutable).
	if _, ok := ix1.Cell(rid, row, col); ok {
		t.Error("old snapshot sees the new cell")
	}

	// Adding a relation and adding rows also advance the generation.
	gen = c.Generation()
	if err := rel.AddRow("NewRow", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if c.Generation() == gen {
		t.Error("AddRow did not advance the generation")
	}
	gen = c.Generation()
	extra := MustNewRelation("Extra", "Index", []string{"2017"})
	if err := c.Add(extra); err != nil {
		t.Fatal(err)
	}
	if c.Generation() == gen {
		t.Error("Add did not advance the generation")
	}
}

// TestGenerationSharedRelation: a relation held by two corpora advances
// both corpora's generations when it mutates, and stops advancing a
// corpus it was removed from; each corpus's index rebuilds accordingly.
func TestGenerationSharedRelation(t *testing.T) {
	a, b := indexFixture(t), NewCorpus()
	shared, err := a.Relation("Fin")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(shared); err != nil {
		t.Fatal(err)
	}
	ixA, ixB := a.Index(), b.Index()
	genA, genB := a.Generation(), b.Generation()
	if err := shared.Set("Revenue", "2017", 1300); err != nil {
		t.Fatal(err)
	}
	if a.Generation() <= genA || b.Generation() <= genB {
		t.Fatalf("Set on a shared relation: generations %d -> %d and %d -> %d, want both to advance",
			genA, a.Generation(), genB, b.Generation())
	}
	for name, c := range map[string]*Corpus{"a": a, "b": b} {
		ix := c.Index()
		if ix == ixA || ix == ixB {
			t.Fatalf("corpus %s kept its stale index", name)
		}
		rid, _ := ix.RelID("Fin")
		row, _ := ix.RowID(rid, "Revenue")
		col, _ := ix.ColID(rid, "2017")
		if v, ok := ix.Cell(rid, row, col); !ok || v != 1300 {
			t.Fatalf("corpus %s index reads %v, %v after the shared Set", name, v, ok)
		}
	}

	if !b.Remove("Fin") {
		t.Fatal("Remove reported Fin absent")
	}
	genA, genB = a.Generation(), b.Generation()
	if err := shared.AddRow("Costs", []float64{700}); err != nil {
		t.Fatal(err)
	}
	if a.Generation() <= genA {
		t.Error("AddRow did not advance the generation of the corpus still holding the relation")
	}
	if b.Generation() != genB {
		t.Error("AddRow advanced the generation of a corpus the relation was removed from")
	}
}

// snapshotView is everything an Index answers about one relation: its
// row IDs, its cells by resolved coordinate, its dimensions and the
// index-wide stats.
type snapshotView struct {
	rows         map[string]int32
	cells        map[CellCoord]float64
	nRows, nCols int
	stats        IndexStats
}

func viewOf(ix *Index, rel string, keys []string) snapshotView {
	rid, _ := ix.RelID(rel)
	v := snapshotView{rows: map[string]int32{}, cells: map[CellCoord]float64{},
		nRows: ix.NumRows(rid), nCols: ix.NumCols(rid), stats: ix.Stats()}
	for _, k := range keys {
		row, ok := ix.RowID(rid, k)
		if !ok {
			continue
		}
		v.rows[k] = row
		for col := int32(0); col < int32(v.nCols); col++ {
			if x, ok := ix.Cell(rid, row, col); ok {
				v.cells[CellCoord{rid, row, col}] = x
			}
		}
	}
	return v
}

func sameView(a, b snapshotView) bool {
	if len(a.rows) != len(b.rows) || len(a.cells) != len(b.cells) ||
		a.nRows != b.nRows || a.nCols != b.nCols || a.stats != b.stats {
		return false
	}
	for k, r := range a.rows {
		if b.rows[k] != r {
			return false
		}
	}
	for cc, x := range a.cells {
		if y, ok := b.cells[cc]; !ok || y != x {
			return false
		}
	}
	return true
}

// TestIndexSnapshotIsolation: the Index reads its relations' storage in
// place, so each mutation kind is checked against an older snapshot —
// Set, AddRow of a new key and AddSparseRow must leave everything the old
// snapshot answers unchanged, while a rebuilt snapshot sees the change.
func TestIndexSnapshotIsolation(t *testing.T) {
	keys := []string{"PGElecDemand", "CapAddTotal_Wind", "NewRow", "Sparse"}
	for _, tc := range []struct {
		name   string
		mutate func(*Relation) error
		check  func(*Index, int32) bool
	}{
		{"Set", func(r *Relation) error { return r.Set("CapAddTotal_Wind", "2016", 500) },
			func(ix *Index, rid int32) bool {
				row, _ := ix.RowID(rid, "CapAddTotal_Wind")
				v, ok := ix.Cell(rid, row, 0)
				return ok && v == 500
			}},
		{"AddRow", func(r *Relation) error { return r.AddRow("NewRow", []float64{1, 2, 3}) },
			func(ix *Index, rid int32) bool {
				row, ok := ix.RowID(rid, "NewRow")
				v, present := ix.Cell(rid, row, 2)
				return ok && present && v == 3 && ix.NumRows(rid) == 3
			}},
		{"AddSparseRow", func(r *Relation) error { return r.AddSparseRow("Sparse", map[string]float64{"Total": 9}) },
			func(ix *Index, rid int32) bool {
				row, ok := ix.RowID(rid, "Sparse")
				_, p0 := ix.Cell(rid, row, 0)
				v, p2 := ix.Cell(rid, row, 2)
				return ok && !p0 && p2 && v == 9
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := indexFixture(t)
			old := c.Index()
			before := viewOf(old, "GED", keys)
			rel, _ := c.Relation("GED")
			if err := tc.mutate(rel); err != nil {
				t.Fatal(err)
			}
			if after := viewOf(old, "GED", keys); !sameView(before, after) {
				t.Fatalf("the old snapshot changed:\n%+v\n%+v", before, after)
			}
			fresh := c.Index()
			if fresh == old {
				t.Fatal("mutation did not rebuild the index")
			}
			rid, _ := fresh.RelID("GED")
			if !tc.check(fresh, rid) {
				t.Fatalf("the rebuilt snapshot misses the %s", tc.name)
			}
			// A second mutation on the now private storage copies nothing
			// and still leaves the first snapshot alone.
			if err := rel.Set("PGElecDemand", "Total", -1); err != nil {
				t.Fatal(err)
			}
			if after := viewOf(old, "GED", keys); !sameView(before, after) {
				t.Fatal("the old snapshot changed on a second mutation")
			}
		})
	}
}

// TestIndexRowIDStopsAtSnapshotRows: a snapshot refuses row IDs past its
// own row count even if the key map it reads gains keys — the guard
// behind copy-on-write, exercised here by clearing the shared mark by
// hand so the map is written in place.
func TestIndexRowIDStopsAtSnapshotRows(t *testing.T) {
	c := indexFixture(t)
	ix := c.Index()
	rel, _ := c.Relation("Fin")
	rel.shared.Store(false)
	if err := rel.AddRow("Costs", []float64{700}); err != nil {
		t.Fatal(err)
	}
	rid, _ := ix.RelID("Fin")
	if row, ok := ix.RowID(rid, "Costs"); ok {
		t.Fatalf("snapshot of 1 row resolved a new key to row %d", row)
	}
	if _, ok := ix.RowID(rid, "Revenue"); !ok {
		t.Fatal("snapshot lost its own row")
	}
}

// TestIndexSnapshotConcurrentReaders: readers of a snapshot run while the
// relations under it are mutated and re-indexed. Under -race this fails if
// a mutation writes storage the snapshot still reads.
func TestIndexSnapshotConcurrentReaders(t *testing.T) {
	c := indexFixture(t)
	old := c.Index()
	keys := []string{"PGElecDemand", "CapAddTotal_Wind", "Revenue"}
	wantGED, wantFin := viewOf(old, "GED", keys), viewOf(old, "Fin", keys)
	ready, done := make(chan struct{}, 2), make(chan struct{})
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		go func() {
			for i := 0; ; i++ {
				if !sameView(wantGED, viewOf(old, "GED", keys)) || !sameView(wantFin, viewOf(old, "Fin", keys)) {
					errs <- "snapshot changed under a reader"
					return
				}
				if i == 0 {
					ready <- struct{}{}
				}
				select {
				case <-done:
					errs <- ""
					return
				default:
				}
			}
		}()
	}
	// Mutate only once both readers are reading the old snapshot.
	<-ready
	<-ready
	ged, _ := c.Relation("GED")
	fin, _ := c.Relation("Fin")
	for i := 0; i < 500; i++ {
		err := errors.Join(ged.Set("PGElecDemand", "2016", float64(i)),
			ged.AddRow("K"+strconv.Itoa(i), []float64{float64(i), 0, 1}),
			fin.Set("Revenue", "2017", float64(i)))
		if err != nil {
			t.Error(err) // the readers still have to be stopped
			break
		}
		if i%10 == 0 {
			c.Index()
		}
	}
	close(done)
	for g := 0; g < 2; g++ {
		if msg := <-errs; msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestRelationCloneIndependent: a clone of a relation an Index shares owns
// its storage — writes on either side reach neither the other nor the
// snapshot.
func TestRelationCloneIndependent(t *testing.T) {
	c := indexFixture(t)
	ix := c.Index()
	keys := []string{"PGElecDemand", "CapAddTotal_Wind", "X"}
	before := viewOf(ix, "GED", keys)
	rel, _ := c.Relation("GED")
	cl := rel.Clone()
	if err := cl.Set("PGElecDemand", "2016", -1); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddRow("X", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if v, _ := rel.Get("PGElecDemand", "2016"); v != 21546 || rel.HasKey("X") {
		t.Fatalf("clone writes reached the original: %v, %v", v, rel.HasKey("X"))
	}
	if err := rel.Set("CapAddTotal_Wind", "Total", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("CapAddTotal_Wind", "Total"); err == nil {
		t.Fatal("original write reached the clone")
	}
	if after := viewOf(ix, "GED", keys); !sameView(before, after) {
		t.Fatal("the snapshot changed")
	}
	if cl.NumRows() != 3 || rel.NumRows() != 2 {
		t.Fatalf("rows: clone %d, original %d", cl.NumRows(), rel.NumRows())
	}
}
