package scrutinizer

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/repro/scrutinizer/internal/store"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// These tests cover how recovery decodes the journal: corpus dumps are
// parsed on several goroutines and applied in journal order, so the
// recovered corpus and the first error reported must be those of a
// one-relation-at-a-time rebuild.

// corpusDiff describes the first difference between two corpora, or
// returns "" when they hold the same relations in the same order with the
// same keys, metadata, NULL masks and bit-identical cells, and intern them
// to the same Index IDs.
func corpusDiff(want, got *Corpus) string {
	if !slices.Equal(want.Names(), got.Names()) {
		return fmt.Sprintf("relations %q, want %q", got.Names(), want.Names())
	}
	wix, gix := want.Index(), got.Index()
	for _, name := range want.Names() {
		wr, _ := want.Relation(name)
		gr, _ := got.Relation(name)
		switch {
		case wr.KeyAttr() != gr.KeyAttr():
			return fmt.Sprintf("%s: key attribute %q, want %q", name, gr.KeyAttr(), wr.KeyAttr())
		case !slices.Equal(wr.Attrs(), gr.Attrs()):
			return fmt.Sprintf("%s: attributes differ", name)
		case !slices.Equal(wr.Keys(), gr.Keys()):
			return fmt.Sprintf("%s: keys differ", name)
		case !maps.Equal(wr.Metadata(), gr.Metadata()):
			return fmt.Sprintf("%s: metadata %v, want %v", name, gr.Metadata(), wr.Metadata())
		}
		wid, _ := wix.RelID(name)
		gid, ok := gix.RelID(name)
		if !ok || gid != wid {
			return fmt.Sprintf("%s: index relation ID %d, want %d", name, gid, wid)
		}
		for _, key := range wr.Keys() {
			wv, wp, _ := wr.Row(key)
			gv, gp, _ := gr.Row(key)
			if !slices.Equal(wp, gp) {
				return fmt.Sprintf("%s row %q: NULL mask %v, want %v", name, key, gp, wp)
			}
			for i := range wv {
				if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
					return fmt.Sprintf("%s row %q cell %d: %v, want %v", name, key, i, gv[i], wv[i])
				}
			}
			wrow, _ := wix.RowID(wid, key)
			if grow, _ := gix.RowID(gid, key); grow != wrow {
				return fmt.Sprintf("%s row %q: index row ID %d, want %d", name, key, grow, wrow)
			}
		}
		for _, a := range wr.Attrs() {
			wcol, _ := wix.ColID(wid, a)
			if gcol, _ := gix.ColID(gid, a); gcol != wcol {
				return fmt.Sprintf("%s attribute %q: index column ID %d, want %d", name, a, gcol, wcol)
			}
		}
	}
	return ""
}

// atLeastFourProcs raises GOMAXPROCS to 4 for the test, so the parallel
// decode runs on several goroutines even on a one-core host.
func atLeastFourProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestRecoveryCorpusMatchesLive: a bench-world corpus recovered through a
// file store — its create dump, a put that replaces a relation, a put of a
// new one with NULLs, NaN, ±Inf and a negative zero, and a delete — equals
// the live corpus: relation order, cells bit for bit, NULL masks, metadata
// and interned Index IDs.
func TestRecoveryCorpusMatchesLive(t *testing.T) {
	atLeastFourProcs(t)
	w, err := worldgen.Generate(benchWorldCfg())
	if err != nil {
		t.Fatal(err)
	}
	special, err := NewRelation("special", "Index", []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range [][]float64{{math.NaN(), math.Inf(1), math.Inf(-1)}, {math.Copysign(0, -1), 5e-324, -math.MaxFloat64}} {
		if err := special.AddRow("k"+strconv.Itoa(i), row); err != nil {
			t.Fatal(err)
		}
	}
	if err := special.AddSparseRow("sparse", map[string]float64{"b": 0.1}); err != nil {
		t.Fatal(err)
	}
	special.SetMeta("unit", "Mtoe")
	if err := w.Corpus.Add(special); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := attachedService(t, st, nil)
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	names := w.Corpus.Names()
	replaced, dropped := names[1], names[4]
	if _, _, err := svc.PutRelation("world", replaced, []byte("Index,2000,2001\nA,1,\nB,,-0\n")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.PutRelation("world", "uploaded", []byte("Index,x\nK, NaN \nL,-Inf\nM,\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DropRelation("world", dropped); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	live, _ := svc.Corpus("world")

	for i := 0; i < 3; i++ {
		st2, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		svc2 := NewService()
		if _, err := svc2.Recover(st2, nil); err != nil {
			t.Fatal(err)
		}
		st2.Close()
		got, ok := svc2.Corpus("world")
		if !ok {
			t.Fatal("corpus not recovered")
		}
		if d := corpusDiff(live, got); d != "" {
			t.Fatalf("recovery %d: %s", i, d)
		}
	}
}

// TestRecoveryReportsFirstMalformedRelation: with malformed relations at
// positions 3 and 7 of a corpus dump, recovery fails on position 3 every
// time, although position 3 fails on its last row and position 7 on its
// header, long before. The same holds for malformed relation puts.
func TestRecoveryReportsFirstMalformedRelation(t *testing.T) {
	atLeastFourProcs(t)
	relCSV := func(i int) string {
		var b strings.Builder
		b.WriteString("Index,2000,2001\n")
		rows := 20
		if i == 3 {
			rows = 5000
		}
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&b, "k%d,%d,%d.5\n", r, r, r)
		}
		switch i {
		case 3:
			b.WriteString("last,1,notanumber\n")
		case 7:
			return "Index,2000,2000\n"
		}
		return b.String()
	}
	rel := func(i int) store.RelationPayload {
		return store.RelationPayload{Name: "r" + strconv.Itoa(i), CSV: relCSV(i)}
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var dump store.CorpusPayload
	for i := 0; i < 10; i++ {
		dump.Relations = append(dump.Relations, rel(i))
	}
	inDump := []*store.Record{
		{Op: store.OpCorpusCreate, Corpus: "c1", Payload: marshal(dump)},
		{Op: store.OpRelationPut, Corpus: "c1", Relation: "bad", Payload: []byte(`{"name":5}`)},
	}
	inPuts := []*store.Record{{Op: store.OpCorpusCreate, Corpus: "c1"}}
	for i := 0; i < 10; i++ {
		inPuts = append(inPuts, &store.Record{Op: store.OpRelationPut, Corpus: "c1", Relation: "r" + strconv.Itoa(i), Payload: marshal(rel(i))})
	}

	for _, tc := range []struct {
		name    string
		records []*store.Record
		want    string
	}{
		{"dump", inDump, `corpus "c1" relation "r3": table: "r3" line 5002 column "2001"`},
		{"puts", inPuts, `relation "r3": table: "r3" line 5002 column "2001"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewMemoryStore()
			for _, rec := range tc.records {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				_, err := NewService().Recover(st, nil)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("attempt %d: error %v, want one containing %s", i, err, tc.want)
				}
			}
		})
	}
}

// TestRecoveryPhaseTimes: Recover splits its wall time into replay,
// corpora, verifiers and sessions phases that are never negative and add
// up to no more than the whole; over a populated store the corpus and
// verifier phases do measurable work.
func TestRecoveryPhaseTimes(t *testing.T) {
	w := recoveryWorld(t)
	st := NewMemoryStore()
	mgr := NewSessionManager(0, 0)
	svc := attachedService(t, st, mgr)
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := v.StartSession(context.Background(), mgr, w.Document, SessionOptions{Verify: VerifyOptions{BatchSize: 6}})
	if err != nil {
		t.Fatal(err)
	}
	answerNext(t, sess)

	t0 := time.Now()
	stats, err := NewService().Recover(st, NewSessionManager(0, 0))
	wall := time.Since(t0).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	phases := []float64{stats.ReplayS, stats.CorporaS, stats.VerifiersS, stats.SessionsS}
	var sum float64
	for _, p := range phases {
		if p < 0 {
			t.Fatalf("negative phase in %+v", stats)
		}
		sum += p
	}
	if sum > wall {
		t.Fatalf("phases sum to %gs, more than Recover's %gs: %+v", sum, wall, stats)
	}
	if stats.CorporaS <= 0 || stats.VerifiersS <= 0 {
		t.Fatalf("populated store, yet an empty corpus or verifier phase: %+v", stats)
	}
}

// TestRecoveryCorpusErrorWithRetraining: verifiers retrain while the
// corpora rebuild, yet a malformed corpus is what Recover reports, ahead
// of verifiers that train fine and of one that fails, and no retraining
// goroutine outlives the call: the verifiers not yet started when the
// corpus fails are abandoned. A malformed verifier beside sound corpora is
// reported as before.
func TestRecoveryCorpusErrorWithRetraining(t *testing.T) {
	w, err := worldgen.Generate(benchWorldCfg())
	if err != nil {
		t.Fatal(err)
	}
	live := NewMemoryStore()
	svc := attachedService(t, live, nil)
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		if _, err := svc.CreateVerifier("world", w.Document, Options{Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	badPut := &store.Record{Op: store.OpRelationPut, Corpus: "world", Relation: "bad",
		Payload: []byte(`{"name":"bad","csv":"Index,a\nx,notanumber\n"}`)}
	badVerifier := &store.Record{Op: store.OpVerifierCreate, Corpus: "world", Verifier: "v9",
		Payload: []byte(`{"training":{"title":"t","sections":1,"claims":[{"id":1,"section":5}]}}`)}

	for _, tc := range []struct {
		name  string
		extra []*store.Record
		want  string
	}{
		{"corpus", []*store.Record{badPut}, `rebuilding corpus: relation "bad"`},
		{"both", []*store.Record{badVerifier, badPut}, `rebuilding corpus: relation "bad"`},
		{"verifier", []*store.Record{badVerifier}, `rebuilding verifier "v9"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewMemoryStore()
			if err := live.Replay(st.Append); err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.extra {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			before := runtime.NumGoroutine()
			_, err := NewService().Recover(st, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %s", err, tc.want)
			}
			// A goroutine that has signalled its end may take a moment
			// to exit; one still retraining would take far longer.
			for deadline := time.Now().Add(50 * time.Millisecond); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Recover, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestRecoveryDecodesOnlySurvivors: recovery decodes nothing of a verifier,
// session or answer deleted later in the journal, so payloads that are JSON
// but not of their type fail no boot when their resource is gone. On
// survivors the same payloads fail Recover with the texts they always had,
// and a corpus error still comes first.
func TestRecoveryDecodesOnlySurvivors(t *testing.T) {
	w := recoveryWorld(t)
	docA, _ := splitWorldDoc(w)
	live := NewMemoryStore()
	mgr := NewSessionManager(0, 0)
	svc := attachedService(t, live, mgr)
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{Verify: VerifyOptions{BatchSize: 5, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	answerNext(t, sess)
	answerNext(t, sess)
	want := registrySummary(svc, mgr, []string{sess.ID()})

	const (
		badVerifier = `{"training":5,"options":[]}`
		badSession  = `{"doc":5,"verify":[]}`
		badAnswer   = `{"claim_id":"x"}`
	)
	rec := func(op store.Op, corpus, verifier, session, payload string) *store.Record {
		r := &store.Record{Op: op, Corpus: corpus, Verifier: verifier, Session: session}
		if payload != "" {
			r.Payload = []byte(payload)
		}
		return r
	}
	journal := func(extra ...*store.Record) *store.Memory {
		st := NewMemoryStore()
		if err := live.Replay(st.Append); err != nil {
			t.Fatal(err)
		}
		for _, r := range extra {
			if err := st.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}

	// Deleted resources: a verifier and its session deleted one by one, and
	// a corpus whose delete cascades over a verifier whose session was never
	// ended, as in journals of builds where sessions outlived their
	// verifier; that session is skipped, not decoded.
	st := journal(
		rec(store.OpVerifierCreate, "world", "v90", "", badVerifier),
		rec(store.OpSessionCreate, "", "v90", "s90", badSession),
		rec(store.OpSessionAnswer, "", "v90", "s90", badAnswer),
		rec(store.OpSessionDelete, "", "v90", "s90", ""),
		rec(store.OpVerifierDelete, "world", "v90", "", ""),
		rec(store.OpCorpusCreate, "gone", "", "", ""),
		rec(store.OpVerifierCreate, "gone", "v91", "", badVerifier),
		rec(store.OpSessionCreate, "", "v91", "s91", badSession),
		rec(store.OpSessionAnswer, "", "v91", "s91", badAnswer),
		rec(store.OpCorpusDelete, "gone", "", "", ""),
		rec(store.OpSessionAnswer, "", "v90", "s90", badAnswer),
	)
	mgr2 := NewSessionManager(0, 0)
	svc2 := NewService()
	stats, err := svc2.Recover(st, mgr2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Corpora != 1 || stats.Verifiers != 1 || stats.Sessions != 1 || stats.SessionsSkipped != 1 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	if got := registrySummary(svc2, mgr2, []string{sess.ID()}); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state:\n  got  %v\n  want %v", got, want)
	}

	// Survivors: the same payloads fail the boot with the texts they always
	// had; the verifier's is a training document that does not decode.
	badPut := rec(store.OpRelationPut, "world", "", "", `{"name":"bad","csv":"Index,a\nx,notanumber\n"}`)
	badPut.Relation = "bad"
	for _, tc := range []struct {
		name  string
		extra []*store.Record
		want  string
	}{
		{"verifier", []*store.Record{rec(store.OpVerifierCreate, "world", "v90", "", badVerifier)},
			`scrutinizer: replaying journal: verifier "v90" payload: json: cannot unmarshal array into Go struct field verifierPayload.options of type scrutinizer.optionsPayload`},
		{"training", []*store.Record{rec(store.OpVerifierCreate, "world", "v90", "", `{"training":5}`)},
			`scrutinizer: rebuilding verifier "v90": training document: `},
		{"session", []*store.Record{rec(store.OpSessionCreate, "", v.ID(), "s90", badSession)},
			`scrutinizer: replaying journal: session "s90" payload: json: cannot unmarshal array into Go struct field sessionPayload.verify of type scrutinizer.verifyOptionsPayload`},
		{"document", []*store.Record{rec(store.OpSessionCreate, "", v.ID(), "s90", `{"training":5}`)},
			`scrutinizer: session "s90" document: `},
		{"answer", []*store.Record{rec(store.OpSessionAnswer, "", v.ID(), sess.ID(), badAnswer)},
			fmt.Sprintf(`scrutinizer: replaying journal: session %q answer: json: cannot unmarshal string into Go struct field Answer.claim_id of type int`, sess.ID())},
		{"corpus first", []*store.Record{rec(store.OpVerifierCreate, "world", "v90", "", `{"training":5}`), badPut},
			`scrutinizer: rebuilding corpus: relation "bad": `},
		{"corpus before payload", []*store.Record{rec(store.OpVerifierCreate, "world", "v90", "", badVerifier), badPut},
			`scrutinizer: rebuilding corpus: relation "bad": `},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewService().Recover(journal(tc.extra...), NewSessionManager(0, 0))
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("error %v, want one starting %s", err, tc.want)
			}
		})
	}
}
