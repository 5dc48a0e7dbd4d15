package table

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func newGED(t *testing.T) *Relation {
	t.Helper()
	r := MustNewRelation("GED", "Index", []string{"2016", "2017", "2030"})
	if err := r.AddRow("PGElecDemand", []float64{21546, 22209, 29349}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddRow("PGINCoal", []float64{2390, 2412, 2341}); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation("", "Index", nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewRelation("R", "", nil); err == nil {
		t.Error("empty key attribute accepted")
	}
	if _, err := NewRelation("R", "Index", []string{"Index"}); err == nil {
		t.Error("attribute colliding with key accepted")
	}
	if _, err := NewRelation("R", "Index", []string{"2017", "2017"}); err == nil {
		t.Error("duplicate attribute accepted")
	}
}

func TestAddRowAndGet(t *testing.T) {
	r := newGED(t)
	v, err := r.Get("PGElecDemand", "2017")
	if err != nil {
		t.Fatal(err)
	}
	if v != 22209 {
		t.Errorf("Get = %g, want 22209", v)
	}
	if _, err := r.Get("NoSuchKey", "2017"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: got %v, want ErrNotFound", err)
	}
	if _, err := r.Get("PGINCoal", "1999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing attr: got %v, want ErrNotFound", err)
	}
}

func TestAddRowErrors(t *testing.T) {
	r := newGED(t)
	if err := r.AddRow("PGElecDemand", []float64{1, 2, 3}); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := r.AddRow("New", []float64{1}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := r.AddRow("", []float64{1, 2, 3}); err == nil {
		t.Error("empty key accepted")
	}
}

func TestSparseRowAndNulls(t *testing.T) {
	r := MustNewRelation("S", "Index", []string{"2016", "2017"})
	if err := r.AddSparseRow("X", map[string]float64{"2017": 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("X", "2016"); !errors.Is(err, ErrNotFound) {
		t.Errorf("NULL cell: got %v, want ErrNotFound", err)
	}
	if v, err := r.Get("X", "2017"); err != nil || v != 5 {
		t.Errorf("Get = %g, %v", v, err)
	}
	if err := r.AddSparseRow("Y", map[string]float64{"1999": 1}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := r.Set("X", "2016", 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Get("X", "2016"); v != 7 {
		t.Errorf("Set then Get = %g", v)
	}
}

func TestSetErrors(t *testing.T) {
	r := newGED(t)
	if err := r.Set("nope", "2017", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("Set missing row: %v", err)
	}
	if err := r.Set("PGINCoal", "nope", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("Set missing attr: %v", err)
	}
}

func TestRowAndColumn(t *testing.T) {
	r := newGED(t)
	vals, pres, err := r.Row("PGINCoal")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[1] != 2412 || !pres[1] {
		t.Errorf("Row = %v %v", vals, pres)
	}
	keys, col, err := r.Column("2016")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || col[0] != 21546 {
		t.Errorf("Column = %v %v", keys, col)
	}
	if _, _, err := r.Row("nope"); !errors.Is(err, ErrNotFound) {
		t.Error("Row missing key should be ErrNotFound")
	}
	if _, _, err := r.Column("nope"); !errors.Is(err, ErrNotFound) {
		t.Error("Column missing attr should be ErrNotFound")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := newGED(t)
	r.SetMeta("unit", "TWh")
	c := r.Clone()
	if err := c.Set("PGINCoal", "2016", -1); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Get("PGINCoal", "2016"); v != 2390 {
		t.Errorf("clone mutation leaked into original: %g", v)
	}
	if c.Meta("unit") != "TWh" {
		t.Error("metadata not cloned")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := MustNewRelation("R", "Index", []string{"2016", "2017"})
	if err := r.AddRow("a", []float64{1.5, -2}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSparseRow("b", map[string]float64{"2017": 3.25}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("R", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 || got.NumAttrs() != 2 {
		t.Fatalf("round trip shape: %d rows, %d attrs", got.NumRows(), got.NumAttrs())
	}
	if v, _ := got.Get("a", "2016"); v != 1.5 {
		t.Errorf("cell a/2016 = %g", v)
	}
	if _, err := got.Get("b", "2016"); !errors.Is(err, ErrNotFound) {
		t.Error("NULL cell should survive round trip")
	}
	if v, _ := got.Get("b", "2017"); v != 3.25 {
		t.Errorf("cell b/2017 = %g", v)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("R", strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := ReadCSV("R", strings.NewReader("Index,2017\nx,notanumber\n")); err == nil {
		t.Error("non-numeric cell accepted")
	}
	if _, err := ReadCSV("R", strings.NewReader("Index,2017\nx,1\nx,2\n")); err == nil {
		t.Error("duplicate key accepted")
	}
}

func TestCorpusBasics(t *testing.T) {
	c := NewCorpus()
	if err := c.Add(newGED(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(newGED(t)); err == nil {
		t.Error("duplicate relation accepted")
	}
	if err := c.Add(nil); err == nil {
		t.Error("nil relation accepted")
	}
	if !c.Has("GED") || c.Has("X") || c.Len() != 1 {
		t.Error("Has/Len wrong")
	}
	if _, err := c.Relation("X"); !errors.Is(err, ErrNotFound) {
		t.Error("missing relation should be ErrNotFound")
	}
	v, err := c.Get("GED", "PGElecDemand", "2017")
	if err != nil || v != 22209 {
		t.Errorf("corpus Get = %g, %v", v, err)
	}
}

func TestRelationsWithKey(t *testing.T) {
	c := NewCorpus()
	r1 := MustNewRelation("B", "Index", []string{"2017"})
	if err := r1.AddRow("shared", []float64{1}); err != nil {
		t.Fatal(err)
	}
	r2 := MustNewRelation("A", "Index", []string{"2017"})
	if err := r2.AddRow("shared", []float64{2}); err != nil {
		t.Fatal(err)
	}
	r3 := MustNewRelation("C", "Index", []string{"2017"})
	if err := r3.AddRow("other", []float64{3}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Relation{r1, r2, r3} {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	got := c.RelationsWithKey("shared")
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("RelationsWithKey = %v", got)
	}
	if got := c.RelationsWithKey("missing"); len(got) != 0 {
		t.Errorf("missing key should yield empty, got %v", got)
	}
}

func TestCorpusStats(t *testing.T) {
	c := NewCorpus()
	if err := c.Add(newGED(t)); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Relations != 1 || s.Rows != 2 || s.Attrs != 3 || s.Cells != 6 {
		t.Errorf("Stats = %+v", s)
	}
}

// Property: after inserting any set of distinct keys with random values,
// every Get returns exactly the stored value and Keys preserves order.
func TestRelationStoreRetrieveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nAttr := 1 + rng.Intn(6)
		attrs := make([]string, nAttr)
		for i := range attrs {
			attrs[i] = strconv.Itoa(2000 + i)
		}
		r := MustNewRelation("R", "Index", attrs)
		n := 1 + rng.Intn(30)
		want := make(map[string][]float64, n)
		for i := 0; i < n; i++ {
			key := "k" + strconv.Itoa(i)
			vals := make([]float64, nAttr)
			for j := range vals {
				vals[j] = rng.NormFloat64() * 1000
			}
			if err := r.AddRow(key, vals); err != nil {
				return false
			}
			want[key] = vals
		}
		if r.NumRows() != n {
			return false
		}
		for i, key := range r.Keys() {
			if key != "k"+strconv.Itoa(i) {
				return false
			}
			for j, a := range attrs {
				v, err := r.Get(key, a)
				if err != nil || v != want[key][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: CSV round trip preserves every present cell.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		attrs := []string{"2016", "2017", "Total"}
		r := MustNewRelation("R", "Index", attrs)
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			vals := map[string]float64{}
			for _, a := range attrs {
				if rng.Float64() < 0.7 {
					vals[a] = float64(rng.Intn(10000)) / 4
				}
			}
			if err := r.AddSparseRow("row"+strconv.Itoa(i), vals); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV("R", &buf)
		if err != nil {
			return false
		}
		for _, key := range r.Keys() {
			for _, a := range attrs {
				v1, err1 := r.Get(key, a)
				v2, err2 := got.Get(key, a)
				if (err1 == nil) != (err2 == nil) {
					return false
				}
				if err1 == nil && v1 != v2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCorpusRemove: removal drops the relation, strictly advances the
// generation (so cached indexes rebuild), and reports absence honestly.
func TestCorpusRemove(t *testing.T) {
	c := NewCorpus()
	r1 := MustNewRelation("co2", "indicator", []string{"y2000", "y2001"})
	if err := r1.AddRow("transport", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	r2 := MustNewRelation("gdp", "indicator", []string{"y2000"})
	if err := c.Add(r1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(r2); err != nil {
		t.Fatal(err)
	}

	ixBefore := c.Index()
	genBefore := c.Generation()
	if !c.Remove("co2") {
		t.Fatal("Remove reported co2 absent")
	}
	if c.Has("co2") || c.Len() != 1 || c.Names()[0] != "gdp" {
		t.Fatalf("post-remove corpus: has=%v len=%d names=%v", c.Has("co2"), c.Len(), c.Names())
	}
	if gen := c.Generation(); gen <= genBefore {
		t.Fatalf("generation %d did not advance past %d on removal", gen, genBefore)
	}
	if ix := c.Index(); ix == ixBefore || ix.Stats().Relations != 1 {
		t.Fatalf("index did not rebuild after removal: %+v", ix.Stats())
	}
	if c.Remove("co2") {
		t.Fatal("second Remove reported success")
	}
	// Re-adding the same name after removal is legal and advances the
	// generation again.
	if err := c.Add(MustNewRelation("co2", "indicator", []string{"y2000"})); err != nil {
		t.Fatalf("re-add after remove: %v", err)
	}
}

// TestLoadedRelationKeepsNoSlack: appending rows leaves spare capacity
// behind the cells, the mask and the keys; a relation read from CSV, or
// built row by row and then added to a corpus, keeps none of it, and its
// cells read back unchanged.
func TestLoadedRelationKeepsNoSlack(t *testing.T) {
	attrs := make([]string, 87)
	for i := range attrs {
		attrs[i] = strconv.Itoa(1971 + i)
	}
	built := MustNewRelation("R", "Index", attrs)
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 24; k++ {
		vals := make([]float64, len(attrs))
		for i := range vals {
			vals[i] = float64(rng.Intn(100000)) / 8
		}
		if err := built.AddRow("key"+strconv.Itoa(k), vals); err != nil {
			t.Fatal(err)
		}
	}
	if cap(built.cells) == len(built.cells) {
		t.Fatal("appending rows left no spare capacity to trim; the test proves nothing")
	}
	var dump bytes.Buffer
	if err := built.WriteCSV(&dump); err != nil {
		t.Fatal(err)
	}
	read, err := ReadCSV("R", bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewCorpus().Add(built); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Relation{"read": read, "added": built} {
		if cap(r.cells) != len(r.cells) || cap(r.mask) != len(r.mask) || cap(r.rowKeys) != len(r.rowKeys) {
			t.Errorf("%s relation: %d/%d cells, %d/%d mask words, %d/%d keys (length/capacity)",
				name, len(r.cells), cap(r.cells), len(r.mask), cap(r.mask), len(r.rowKeys), cap(r.rowKeys))
		}
		var again bytes.Buffer
		if err := r.WriteCSV(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), dump.Bytes()) {
			t.Errorf("%s relation: cells changed", name)
		}
	}
}
