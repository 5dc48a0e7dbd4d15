package table_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/repro/scrutinizer/internal/table"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// readCSVMap is ReadCSV as it was before rows were parsed by header
// position: each row goes through a map from attribute name to value and
// AddSparseRow. It is the oracle FuzzReadCSV holds ReadCSV to, relation
// and error text alike.
func readCSVMap(name string, rd io.Reader) (*table.Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: reading header of %q: %w", name, err)
	}
	if len(header) < 1 {
		return nil, fmt.Errorf("table: relation %q has no columns", name)
	}
	rel, err := table.NewRelation(name, header[0], header[1:])
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

// relationDiff describes the first difference between two relations, or
// returns "" when they hold the same names, keys, metadata, NULL mask and
// cells, bit for bit (NaN payloads and signed zeros included).
func relationDiff(want, got *table.Relation) string {
	switch {
	case want.Name() != got.Name():
		return fmt.Sprintf("name %q, want %q", got.Name(), want.Name())
	case want.KeyAttr() != got.KeyAttr():
		return fmt.Sprintf("key attribute %q, want %q", got.KeyAttr(), want.KeyAttr())
	case !slices.Equal(want.Attrs(), got.Attrs()):
		return fmt.Sprintf("attributes %q, want %q", got.Attrs(), want.Attrs())
	case !slices.Equal(want.Keys(), got.Keys()):
		return fmt.Sprintf("keys %q, want %q", got.Keys(), want.Keys())
	case !maps.Equal(want.Metadata(), got.Metadata()):
		return fmt.Sprintf("metadata %v, want %v", got.Metadata(), want.Metadata())
	}
	for _, key := range want.Keys() {
		wv, wp, _ := want.Row(key)
		gv, gp, _ := got.Row(key)
		if !slices.Equal(wp, gp) {
			return fmt.Sprintf("row %q NULL mask %v, want %v", key, gp, wp)
		}
		for i := range wv {
			if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
				return fmt.Sprintf("row %q cell %d = %v, want %v", key, i, gv[i], wv[i])
			}
		}
	}
	return ""
}

// relationCSV is rel's WriteCSV dump.
func relationCSV(tb testing.TB, rel *table.Relation) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// paperShapeRelation is a generated relation of the paper-scale world's
// shape: 24 keys over 80 years plus 7 aggregates.
func paperShapeRelation(tb testing.TB) *table.Relation {
	tb.Helper()
	cfg := worldgen.SmallScale()
	cfg.YearStart, cfg.YearEnd = 1971, 2050
	cfg.KeysPerRelation = 24
	w, err := worldgen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := w.Corpus.Relation(w.Corpus.Names()[0])
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// TestReadCSVKeyDoesNotPinLine: encoding/csv slices every field of a
// record out of one string, so a row key kept as read would hold its whole
// CSV line alive as long as the relation lives. The row here is a short
// key and one cell padded with 4 MiB of blanks: the parsed relation is a
// few hundred bytes, and it must not keep the line.
func TestReadCSVKeyDoesNotPinLine(t *testing.T) {
	const pad = 4 << 20
	in := "Index,a\nsomekey,1" + strings.Repeat(" ", pad) + "\n"
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	rel, err := table.ReadCSV("R", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	after := heap()
	if rel.Keys()[0] != "somekey" {
		t.Fatalf("key %q", rel.Keys()[0])
	}
	if after > before && after-before > pad/2 {
		t.Fatalf("the parsed relation holds %d bytes of heap: its row key pins the CSV line", after-before)
	}
	runtime.KeepAlive(rel)
	runtime.KeepAlive(in)
}

// readCSVSeeds are the FuzzReadCSV seeds: WriteCSV dumps of generated
// relations, one with NULLs, NaN, ±Inf and a negative zero, and malformed
// inputs that stop at each of ReadCSV's checks.
func readCSVSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	w, err := worldgen.Generate(worldgen.SmallScale())
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	for _, name := range w.Corpus.Names()[:3] {
		rel, err := w.Corpus.Relation(name)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, relationCSV(tb, rel))
	}
	special := table.MustNewRelation("S", "Index", []string{"a", "b", "c"})
	for i, row := range [][]float64{{math.NaN(), math.Inf(1), math.Inf(-1)}, {math.Copysign(0, -1), 5e-324, math.MaxFloat64}} {
		if err := special.AddRow("k"+strconv.Itoa(i), row); err != nil {
			tb.Fatal(err)
		}
	}
	if err := special.AddSparseRow(" spaced, \"quoted\"", map[string]float64{"b": 2}); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, relationCSV(tb, special))
	for _, s := range []string{
		"",
		"Index\n",
		"Index,2017\nx,1\n",
		"Index,2017\nx,notanumber\n",
		"Index,2017\nx,1\nx,2\n",
		"Index,2017\n,1\n",
		"Index,2017\nx,1,2\n",
		"Index,2017,2017\nx,1,2\n",
		"Index,Index\nx,1\n",
		",2017\nx,1\n",
		"Index,2017\nx, 1e400 \n",
		"Index,2017\n\"x\ny\",1\n",
		"Index,2017\n\"x,1\n",
		"Index,2017\nx,\"1\"2\n",
		"Index,a,b\nx,,\ny, inf ,-Inf\nz,0x1p-2,NaN\n",
		"Index,a\r\nx,1\r\n",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzReadCSV holds ReadCSV, which parses relation uploads and journal
// dumps, to three properties on any input: it does not panic; it gives the
// relation, or the error text, of the map-based parser it replaced; and a
// relation it accepts round-trips through WriteCSV bit for bit.
func FuzzReadCSV(f *testing.F) {
	for _, s := range readCSVSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := table.ReadCSV("R", bytes.NewReader(data))
		want, werr := readCSVMap("R", bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("error %v, oracle %v", err, werr)
		}
		if err != nil {
			return
		}
		if d := relationDiff(want, got); d != "" {
			t.Fatalf("against the oracle: %s", d)
		}
		if crlfInNames(got) {
			// encoding/csv reads a quoted "\r\n" back as "\n", so such a
			// name cannot round-trip through any CSV it writes.
			return
		}
		back, err := table.ReadCSV("R", bytes.NewReader(relationCSV(t, got)))
		if err != nil {
			t.Fatalf("re-reading the WriteCSV dump: %v", err)
		}
		if d := relationDiff(got, back); d != "" {
			t.Fatalf("WriteCSV round trip: %s", d)
		}
	})
}

// crlfInNames reports whether a key or attribute name holds "\r\n".
func crlfInNames(rel *table.Relation) bool {
	has := func(s string) bool { return strings.Contains(s, "\r\n") }
	return has(rel.KeyAttr()) || slices.ContainsFunc(rel.Attrs(), has) || slices.ContainsFunc(rel.Keys(), has)
}

// BenchmarkReadCSV parses one paper-shape relation (24 rows of 87 cells)
// from its WriteCSV dump: the per-relation cost of a corpus rebuild at
// recovery and of a relation upload.
func BenchmarkReadCSV(b *testing.B) {
	in := relationCSV(b, paperShapeRelation(b))
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.ReadCSV("R", bytes.NewReader(in)); err != nil {
			b.Fatal(err)
		}
	}
}
