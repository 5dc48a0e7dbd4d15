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
