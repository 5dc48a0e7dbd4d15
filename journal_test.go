package scrutinizer

// Journal-record tests: what the service writes to an attached store, byte
// for byte, when it writes it, and what it refuses to write. Corpus
// registration builds its record only when a store is attached, and outside
// the registry lock; relation uploads journal the request body verbatim.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"github.com/repro/scrutinizer/internal/store"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// journaled returns every record in st, in journal order.
func journaled(t *testing.T, st Store) []*store.Record {
	t.Helper()
	var recs []*store.Record
	if err := st.Replay(func(rec *store.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// csvOf is a relation's WriteCSV form.
func csvOf(t *testing.T, rel *Relation) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAddCorpusEphemeralAllocs: without a store nothing is journaled, so
// AddCorpus must not build a record either — registration costs a handful
// of allocations (ID, entry, query-cache shards), not one per cell of the
// corpus's CSV dump.
func TestAddCorpusEphemeralAllocs(t *testing.T) {
	w, err := worldgen.Generate(benchWorldCfg())
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := svc.AddCorpus("", w.Corpus); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("AddCorpus without a store: %.0f allocs/op over a %d-cell corpus, want <= 40", allocs, w.Corpus.Stats().Cells)
	}
}

// TestAddCorpusJournalBytesUnchanged pins the corpus.create payload, and
// the relation.put of a WriteCSV upload (what daemon clients send; it
// carries no metadata), to the bytes the service wrote when it built every
// record under the registry lock and re-encoded parsed uploads: building
// records outside the lock and journaling upload bodies verbatim must not
// change the journal. The FNV-64a constants were measured on that earlier
// code.
func TestAddCorpusJournalBytesUnchanged(t *testing.T) {
	cfg := SmallWorld()
	cfg.NumClaims = 50
	cfg.NumSections = 5
	cfg.Seed = 1
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemoryStore()
	svc := attachedService(t, st, nil)
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddCorpus("scratch", NewCorpus()); err != nil {
		t.Fatal(err)
	}
	rel, err := w.Corpus.Relation(w.Corpus.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.PutRelation("scratch", rel.Name(), []byte(csvOf(t, rel))); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		op     store.Op
		corpus string
		size   int
		hash   uint64
	}{
		{store.OpCorpusCreate, "world", 162102, 0x82eacf79717bb852},
		{store.OpCorpusCreate, "scratch", 2, 0x8f44b07b5901a25},
		{store.OpRelationPut, "scratch", 4982, 0x99a1873f9e671286},
	}
	recs := journaled(t, st)
	if len(recs) != len(want) {
		t.Fatalf("journal holds %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		got := fmt.Sprintf("%s %s %d %#x", rec.Op, rec.Corpus, len(rec.Payload), fnv64a(rec.Payload))
		exp := fmt.Sprintf("%s %s %d %#x", want[i].op, want[i].corpus, want[i].size, want[i].hash)
		if got != exp {
			t.Errorf("record %d: %s, want %s", i, got, exp)
		}
	}
}

// TestAddCorpusConcurrentRegistration: the duplicate check and the ID mint
// happen under the registry lock after the record is encoded, so racing
// registrations of one explicit ID admit exactly one (and journal exactly
// one corpus.create), and racing minted registrations get distinct IDs,
// each journaled under its own ID. Run under -race.
func TestAddCorpusConcurrentRegistration(t *testing.T) {
	w := recoveryWorld(t)
	st := NewMemoryStore()
	svc := attachedService(t, st, nil)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	minted := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.AddCorpus("shared", w.Corpus)
		}(i)
		go func(i int) {
			defer wg.Done()
			id, err := svc.AddCorpus("", w.Corpus)
			if err != nil {
				t.Error(err)
			}
			minted[i] = id
		}(i)
	}
	wg.Wait()

	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok != 1 {
		t.Fatalf("%d of %d registrations of one ID succeeded, want 1", ok, n)
	}
	journaledIDs := make(map[string]int)
	for _, rec := range journaled(t, st) {
		if rec.Op == store.OpCorpusCreate {
			journaledIDs[rec.Corpus]++
		}
	}
	if journaledIDs["shared"] != 1 {
		t.Fatalf("journal holds %d corpus.create records for the shared ID, want 1", journaledIDs["shared"])
	}
	seen := make(map[string]bool)
	for _, id := range minted {
		if id == "" || seen[id] {
			t.Fatalf("minted IDs not unique: %q", minted)
		}
		seen[id] = true
		if journaledIDs[id] != 1 {
			t.Fatalf("minted corpus %q journaled %d times, want 1", id, journaledIDs[id])
		}
	}
	if len(journaledIDs) != n+1 {
		t.Fatalf("journal holds %d distinct corpora, want %d", len(journaledIDs), n+1)
	}
	stats, err := NewService().Recover(st, nil)
	if err != nil || stats.Corpora != n+1 {
		t.Fatalf("recover: %+v, %v", stats, err)
	}
}

// TestRecoveryRelationPutJournalsBody: a relation upload is journaled as
// the request's own bytes — not a re-encoding of the parsed relation — and
// a journal holding the older re-encoded form (WriteCSV dump plus
// metadata, as relation puts used to be written) still recovers.
func TestRecoveryRelationPutJournalsBody(t *testing.T) {
	// Not canonical WriteCSV output: CRLF line ends, padded and
	// non-shortest numbers, a NULL cell.
	body := []byte("key,x,y\r\nk1, 1.50 ,\r\nk2,2e1,3\r\n")
	st := NewMemoryStore()
	svc := attachedService(t, st, nil)
	if _, err := svc.AddCorpus("c", NewCorpus()); err != nil {
		t.Fatal(err)
	}
	rel, replaced, err := svc.PutRelation("c", "r", body)
	if err != nil || replaced {
		t.Fatalf("PutRelation: replaced=%v err=%v", replaced, err)
	}
	if rel.NumRows() != 2 || rel.NumAttrs() != 2 {
		t.Fatalf("parsed %d rows x %d attrs, want 2 x 2", rel.NumRows(), rel.NumAttrs())
	}
	recs := journaled(t, st)
	last := recs[len(recs)-1]
	var rp store.RelationPayload
	if err := json.Unmarshal(last.Payload, &rp); err != nil {
		t.Fatal(err)
	}
	if last.Op != store.OpRelationPut || last.Relation != "r" || rp.Name != "r" || rp.CSV != string(body) || rp.Meta != nil {
		t.Fatalf("journaled %s %q: payload %+v, want the request body verbatim", last.Op, last.Relation, rp)
	}
	want := csvOf(t, rel)

	svc2 := NewService()
	if _, err := svc2.Recover(st, nil); err != nil {
		t.Fatal(err)
	}
	c2, _ := svc2.Corpus("c")
	got, err := c2.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	if csvOf(t, got) != want {
		t.Fatalf("recovered relation:\n%s\nwant:\n%s", csvOf(t, got), want)
	}

	// The older form, appended by hand: the relation's WriteCSV dump with
	// its metadata.
	rel.SetMeta("unit", "Mtoe")
	old, err := relationPayload(rel)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	legacy := NewMemoryStore()
	for _, rec := range []*store.Record{
		{Op: store.OpCorpusCreate, Corpus: "c", Payload: []byte("{}")},
		{Op: store.OpRelationPut, Corpus: "c", Relation: "r", Payload: payload},
	} {
		if err := legacy.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	svc3 := NewService()
	if _, err := svc3.Recover(legacy, nil); err != nil {
		t.Fatal(err)
	}
	c3, _ := svc3.Corpus("c")
	got, err = c3.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	if csvOf(t, got) != want || got.Meta("unit") != "Mtoe" {
		t.Fatalf("re-encoded relation.put recovered as %q (unit %q)", csvOf(t, got), got.Meta("unit"))
	}
}

// TestRecoveryRefusesNonUTF8Relations: the journal's JSON strings cannot
// carry invalid UTF-8 (encoding swaps it for U+FFFD), so a relation with
// such bytes used to be acknowledged and then recovered as a different
// relation — or, when two keys collapsed into one, fail the whole boot
// with a duplicate row key. Uploads and registrations like that are now
// refused, and the data directory keeps booting.
func TestRecoveryRefusesNonUTF8Relations(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := attachedService(t, fs, nil)
	if _, err := svc.AddCorpus("c", NewCorpus()); err != nil {
		t.Fatal(err)
	}
	good := []byte("key,x\na,1\nb,2\n")
	for _, tc := range []struct {
		name string
		csv  []byte
	}{
		{"r", []byte("key,x\na\xff,1\na\xfe,2\n")}, // both keys encode as "a�"
		{"r", []byte("key,x\nk\xff,1\n")},
		{"r\xff", good},
	} {
		if _, _, err := svc.PutRelation("c", tc.name, tc.csv); !errors.Is(err, ErrNotUTF8) {
			t.Fatalf("PutRelation(%q, %q): err = %v, want ErrNotUTF8", tc.name, tc.csv, err)
		}
	}
	if _, _, err := svc.PutRelation("c", "ok", good); err != nil {
		t.Fatal(err)
	}
	// Registration: a corpus built in process can hold such keys too.
	bad, err := ReadRelationCSV("bad", strings.NewReader("key,x\nk\xff,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewCorpus()
	if err := corpus.Add(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddCorpus("bad", corpus); !errors.Is(err, ErrNotUTF8) {
		t.Fatalf("AddCorpus: err = %v, want ErrNotUTF8", err)
	}
	if _, ok := svc.Corpus("bad"); ok {
		t.Fatal("refused corpus is registered")
	}
	// Without a store nothing is journaled, so nothing needs refusing.
	if _, err := NewService().AddCorpus("bad", corpus); err != nil {
		t.Fatalf("ephemeral AddCorpus: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	svc2 := NewService()
	stats, err := svc2.Recover(fs2, nil)
	if err != nil {
		t.Fatalf("restart after refused uploads: %v", err)
	}
	c, _ := svc2.Corpus("c")
	if stats.Corpora != 1 || c.Len() != 1 || !c.Has("ok") {
		t.Fatalf("recovered %+v with relations %v, want corpus c holding only %q", stats, c.Names(), "ok")
	}
}

// TestRecoveryRefusesCRLFNames: a corpus is journaled as its relations'
// WriteCSV dumps, and a CSV reader reads a quoted "\r\n" back as "\n". A
// row key, key attribute or attribute name holding "\r\n" used to be
// acknowledged and then recovered as a different one; registering such a
// relation is now refused, and a restart recovers only what was
// acknowledged. A lone "\n" round-trips and is accepted.
func TestRecoveryRefusesCRLFNames(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := attachedService(t, fs, nil)
	corpusOf := func(csv string) *Corpus {
		t.Helper()
		rel, err := ReadRelationCSV("r", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		c := NewCorpus()
		if err := c.Add(rel); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, csv := range []string{
		"Index,a\n\"x\r\r\ny\",1\n", // row key "x\r\ny"
		"Index,\"a\r\r\nb\"\nx,1\n", // attribute "a\r\nb"
		"\"In\r\r\ndex\",a\nx,1\n",  // key attribute "In\r\ndex"
	} {
		if _, err := svc.AddCorpus("bad", corpusOf(csv)); !errors.Is(err, ErrCRLF) {
			t.Fatalf("AddCorpus of %q: err = %v, want ErrCRLF", csv, err)
		}
	}
	if _, err := svc.AddCorpus("ok", corpusOf("Index,a\n\"x\ny\",1\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	svc2 := NewService()
	if _, err := svc2.Recover(fs2, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc2.Corpus("bad"); ok {
		t.Fatal("refused corpus recovered")
	}
	c, _ := svc2.Corpus("ok")
	rel, err := c.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	if keys := rel.Keys(); len(keys) != 1 || keys[0] != "x\ny" {
		t.Fatalf("recovered keys %q, want [\"x\\ny\"]", keys)
	}
}
