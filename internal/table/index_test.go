package table

import (
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
