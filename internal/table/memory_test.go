package table_test

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"github.com/repro/scrutinizer/internal/table"
)

// paperShapeCorpus is n copies of paperShapeRelation (24 rows of 87
// cells), read back from its CSV dump under distinct names.
func paperShapeCorpus(tb testing.TB, n int) *table.Corpus {
	tb.Helper()
	dump := relationCSV(tb, paperShapeRelation(tb))
	c := table.NewCorpus()
	for i := 0; i < n; i++ {
		rel, err := table.ReadCSV("R"+strconv.Itoa(i), bytes.NewReader(dump))
		if err != nil {
			tb.Fatal(err)
		}
		if err := c.Add(rel); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// TestIndexBuildAllocsPerRelation: the Index reads each relation's cells
// in place, so building one allocates per relation, not per cell. A copy
// of the cells would cost at least 8 bytes a cell (~16.7 KB a relation of
// this shape); the bound is 256 bytes and one allocation a relation.
func TestIndexBuildAllocsPerRelation(t *testing.T) {
	for _, n := range []int{8, 64} {
		c := paperShapeCorpus(t, n)
		allocs := testing.AllocsPerRun(10, func() { table.BuildIndex(c) })
		const builds = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < builds; i++ {
			table.BuildIndex(c)
		}
		runtime.ReadMemStats(&after)
		perRel := float64(after.TotalAlloc-before.TotalAlloc) / builds / float64(n)
		t.Logf("%d relations, %d cells: %.0f allocations, %.0f bytes a relation a build",
			n, c.Stats().Cells, allocs, perRel)
		if allocs > float64(n) {
			t.Errorf("%d relations: BuildIndex made %.0f allocations, want at most one a relation", n, allocs)
		}
		if perRel > 256 {
			t.Errorf("%d relations: BuildIndex allocated %.0f bytes a relation, want at most 256", n, perRel)
		}
	}
}

// TestCorpusSharesHeaders: relations added to one corpus with the same
// attributes share one attribute slice (and index map), while a relation
// with other attributes, and one another corpus already holds, keep
// their own.
func TestCorpusSharesHeaders(t *testing.T) {
	c := paperShapeCorpus(t, 8)
	first := &relationOf(t, c, "R0").Attrs()[0]
	for _, name := range c.Names() {
		if &relationOf(t, c, name).Attrs()[0] != first {
			t.Errorf("%s does not share R0's attributes", name)
		}
	}
	other := table.MustNewRelation("other", "Index", []string{"1971", "1972"})
	if err := c.Add(other); err != nil {
		t.Fatal(err)
	}
	// A relation another corpus holds may be read there already: adding
	// it to c must not swap its attributes.
	r, err := table.ReadCSV("held", bytes.NewReader(relationCSV(t, paperShapeRelation(t))))
	if err != nil {
		t.Fatal(err)
	}
	if err := table.NewCorpus().Add(r); err != nil {
		t.Fatal(err)
	}
	own := &r.Attrs()[0]
	if err := c.Add(r); err != nil {
		t.Fatal(err)
	}
	if &other.Attrs()[0] == first || &r.Attrs()[0] != own {
		t.Error("a relation with other attributes, or one another corpus holds, took a shared header")
	}
	if v, err := c.Get("R3", relationOf(t, c, "R3").Keys()[0], "1971"); err != nil || v != mustGet(t, r, r.Keys()[0], "1971") {
		t.Errorf("R3 reads %v, %v through the shared header; want the dump's %v", v, err, mustGet(t, r, r.Keys()[0], "1971"))
	}
}

func relationOf(t *testing.T, c *table.Corpus, name string) *table.Relation {
	t.Helper()
	r, err := c.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustGet(t *testing.T, r *table.Relation, key, attr string) float64 {
	t.Helper()
	v, err := r.Get(key, attr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
