package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// journalOf frames records as Append writes them, numbering them from 1.
func journalOf(t testing.TB, recs []*Record) []byte {
	t.Helper()
	var out []byte
	for i, rec := range recs {
		cp := *rec
		cp.Seq = uint64(i) + 1
		var err error
		if out, err = AppendRecord(out, &cp); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// compactBytes is a compaction of a whole journal held in memory.
func compactBytes(journal []byte) ([]byte, error) {
	src := bytes.NewReader(journal)
	fold, err := foldJournal(src, int64(len(journal)))
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if _, _, _, err := writeCompacted(&out, src, fold); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// foldState is what recovery reads of a journal: the surviving records,
// headers and payload bytes (as length and hash), in journal order, and
// the ID watermark.
type foldState struct {
	live []string
	mark WatermarkPayload
}

func foldOf(t testing.TB, journal []byte) foldState {
	t.Helper()
	fold := NewFold[*Record]()
	if _, err := ScanJournal(bytes.NewReader(journal), func(rec *Record) error {
		return fold.Add(rec, 0, rec)
	}); err != nil {
		t.Fatalf("folding journal: %v", err)
	}
	var st foldState
	for _, rec := range fold.Live() {
		h := fnv.New64a()
		h.Write(rec.Payload)
		st.live = append(st.live, string(rec.Op)+" c="+rec.Corpus+" v="+rec.Verifier+" s="+rec.Session+" r="+rec.Relation+
			" payload="+strconv.Itoa(len(rec.Payload))+":"+strconv.FormatUint(h.Sum64(), 16))
	}
	st.mark = fold.Watermark()
	return st
}

// storeFold folds what a store replays.
func storeFold(t testing.TB, s Store) foldState {
	t.Helper()
	var recs []*Record
	if err := s.Replay(func(rec *Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return foldOf(t, journalOf(t, recs))
}

// genJournal turns fuzz bytes into a journal of the nine ops and the
// watermark over a few IDs. It skips the records no service could
// append (a corpus created twice, a put or verifier on a missing corpus),
// so every journal folds.
func genJournal(data []byte) []*Record {
	ops := []Op{OpCorpusCreate, OpCorpusDelete, OpRelationPut, OpRelationDelete, OpVerifierCreate,
		OpVerifierDelete, OpSessionCreate, OpSessionAnswer, OpSessionDelete, OpWatermark}
	corpora := make(map[string]bool)
	var recs []*Record
	for i := 0; i+1 < len(data); i += 2 {
		op := ops[int(data[i])%len(ops)]
		n := strconv.Itoa(int(data[i+1])%3 + 1)
		c, v := "c"+n, "v"+n
		rec := &Record{Op: op, Corpus: c}
		switch op {
		case OpCorpusCreate:
			if corpora[c] {
				continue
			}
			corpora[c] = true
		case OpCorpusDelete:
			delete(corpora, c)
		case OpRelationPut, OpRelationDelete:
			if op == OpRelationPut && !corpora[c] {
				continue
			}
			rec.Relation = "r" + strconv.Itoa(int(data[i+1]%2))
		case OpVerifierCreate, OpVerifierDelete:
			if op == OpVerifierCreate && !corpora[c] {
				continue
			}
			rec.Verifier = v
		case OpSessionCreate, OpSessionAnswer, OpSessionDelete:
			rec.Corpus, rec.Verifier, rec.Session = "", v, "s"+n
		case OpWatermark:
			rec.Corpus = ""
			rec.Payload = []byte(`{"corpus":` + strconv.Itoa(int(data[i+1]%5)) + `,"verifier":` + strconv.Itoa(int(data[i+1]%7)) + `}`)
			recs = append(recs, rec)
			continue
		}
		if op != OpCorpusDelete && op != OpVerifierDelete && op != OpSessionDelete && op != OpRelationDelete {
			rec.Payload = []byte(`{"n":` + strconv.Itoa(i) + `}`)
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzJournalFold pins compaction against the fold it shares with
// recovery: a compacted journal folds to the same surviving headers and
// payload bytes, in order, and the same ID watermark as the journal, and
// compacting it again changes no byte.
func FuzzJournalFold(f *testing.F) {
	// Seeds: a corpus deleted and created again with its verifier, an
	// answer after its session's delete, a verifier delete, watermarks.
	f.Add([]byte{0, 0, 2, 0, 4, 0, 6, 0, 7, 0, 1, 0, 0, 0, 2, 0, 8, 0, 7, 0})
	f.Add([]byte{0, 1, 4, 1, 6, 1, 7, 1, 8, 1, 7, 1, 5, 1, 3, 1, 9, 4})
	f.Add([]byte{9, 3, 0, 2, 0, 0, 4, 2, 1, 2, 9, 200, 0, 2, 4, 0, 6, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// 128 records over three IDs of each kind reach every interleaving
		// the fold distinguishes.
		if len(data) > 256 {
			data = data[:256]
		}
		journal := journalOf(t, genJournal(data))
		once, err := compactBytes(journal)
		if err != nil {
			t.Fatalf("compact: %v", err)
		}
		if want, got := foldOf(t, journal), foldOf(t, once); !reflect.DeepEqual(want, got) {
			t.Fatalf("compaction changed the fold:\n  journal   %+v\n  compacted %+v", want, got)
		}
		twice, err := compactBytes(once)
		if err != nil {
			t.Fatalf("compact again: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("compacting twice changed the journal:\n  once  %q\n  twice %q", once, twice)
		}
	})
}

// TestFoldRefusesWhatNoAppendWrites keeps the fold's refusals, which
// recovery reports and an older build meets on a watermark record.
func TestFoldRefusesWhatNoAppendWrites(t *testing.T) {
	for _, tc := range []struct {
		recs []*Record
		want string
	}{
		{[]*Record{{Op: OpCorpusCreate, Corpus: "a"}, {Op: OpCorpusCreate, Corpus: "a"}}, `corpus "a" created twice`},
		{[]*Record{{Op: OpRelationPut, Corpus: "a"}}, `relation put on unknown corpus "a"`},
		{[]*Record{{Op: OpVerifierCreate, Corpus: "a", Verifier: "v1"}}, `verifier "v1" on unknown corpus "a"`},
		{[]*Record{{Op: "journal.compacted"}}, `unknown journal op "journal.compacted"`},
		{[]*Record{{Op: OpWatermark, Payload: []byte(`[]`)}}, `watermark payload: json: cannot unmarshal array into Go value of type store.WatermarkPayload`},
	} {
		fold := NewFold[int]()
		var err error
		for _, rec := range tc.recs {
			if err = fold.Add(rec, 0, 0); err != nil {
				break
			}
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("fold error %v, want %q", err, tc.want)
		}
	}
}

// bigPayload is a payload of about n bytes.
func bigPayload(n int) []byte {
	return []byte(`{"csv":"` + strings.Repeat("x", n) + `"}`)
}

// churned appends a journal whose dead part is about dead bytes: a live
// corpus with a relation and a session with one answer, then dead
// tenants. It returns the records appended.
func churned(t *testing.T, s Store, dead int) []*Record {
	t.Helper()
	recs := []*Record{
		{Op: OpCorpusCreate, Corpus: "live", Payload: []byte(`{"relations":[]}`)},
		{Op: OpRelationPut, Corpus: "live", Relation: "r", Payload: []byte(`{"name":"r","csv":"k\nA\n"}`)},
		{Op: OpVerifierCreate, Corpus: "live", Verifier: "v1", Payload: []byte(`{"training":1}`)},
		{Op: OpSessionCreate, Verifier: "v1", Session: "s1", Payload: []byte(`{"doc":1}`)},
		{Op: OpSessionAnswer, Verifier: "v1", Session: "s1", Payload: []byte(`{"a":0}`)},
	}
	for i := 0; dead > 0; i++ {
		c, v := fmt.Sprintf("c%d", i+2), fmt.Sprintf("v%d", i+2)
		recs = append(recs,
			&Record{Op: OpCorpusCreate, Corpus: c, Payload: bigPayload(1 << 20)},
			&Record{Op: OpVerifierCreate, Corpus: c, Verifier: v, Payload: []byte(`{"training":2}`)},
			&Record{Op: OpCorpusDelete, Corpus: c})
		dead -= 1 << 20
	}
	appendAll(t, s, recs...)
	return recs
}

func openFile(t *testing.T, dir string) *File {
	t.Helper()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitIdle waits until no compaction runs on s.
func waitIdle(t *testing.T, s *File) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		busy := s.compacting
		s.mu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("compaction did not finish")
		}
	}
}

// reopen closes s and opens its directory again.
func reopen(t *testing.T, s *File) *File {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return openFile(t, s.dir)
}

// TestCompactionTrigger: only a durable delete starts a compaction, once
// the journal has doubled and grown by the floor since open or the last
// compaction; the delete's Append returns without waiting for it.
func TestCompactionTrigger(t *testing.T) {
	dir := t.TempDir()
	s := openFile(t, dir)
	release := make(chan struct{})
	s.fault = func(st compactStep) error {
		if st == stepPrefix {
			<-release
		}
		return nil
	}
	compacting := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.compacting
	}
	appendAll(t, s, &Record{Op: OpCorpusCreate, Corpus: "live", Payload: []byte(`{}`)},
		&Record{Op: OpCorpusCreate, Corpus: "dead", Payload: []byte(`{}`)})
	for i := 0; i < 5; i++ {
		appendAll(t, s, &Record{Op: OpRelationPut, Corpus: "dead", Relation: "r", Payload: bigPayload(1 << 20)})
	}
	appendAll(t, s, &Record{Op: OpSessionAnswer, Session: "nobody"})
	if compacting() {
		t.Fatal("an answer started a compaction")
	}
	appendAll(t, s, &Record{Op: OpCorpusDelete, Corpus: "dead"})
	want := storeFold(t, s)
	if !compacting() {
		t.Fatal("a delete past the floor did not start a compaction")
	}
	close(release) // the delete's Append returned with phase 1 still held
	waitIdle(t, s)
	if n := s.Stats().Compactions; n != 1 {
		t.Fatalf("%d compactions", n)
	}
	s = reopen(t, s)
	defer s.Close()
	st := s.Stats()
	if st.JournalBytes > 1<<10 || st.Records != 2 {
		t.Fatalf("compacted journal: %+v", st)
	}
	if got := storeFold(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("compaction changed the fold:\n  got  %+v\n  want %+v", got, want)
	}

	// The next trigger needs the journal doubled and grown by the floor
	// again: a small journal grows by the floor.
	s.mu.Lock()
	base := s.base
	s.mu.Unlock()
	for i := 0; i < 3; i++ {
		appendAll(t, s, &Record{Op: OpCorpusCreate, Corpus: fmt.Sprintf("e%d", i), Payload: bigPayload(1 << 20)},
			&Record{Op: OpCorpusDelete, Corpus: fmt.Sprintf("e%d", i)})
	}
	if s.Stats().Compactions != 0 || compacting() {
		t.Fatalf("compacted %d bytes past a %d byte base", s.Stats().JournalBytes, base)
	}
}

// TestCompactionStats: a compaction reports what it kept and how long
// it took; LiveBytes then follows the fold through later appends.
func TestCompactionStats(t *testing.T) {
	s := openFile(t, t.TempDir())
	defer s.Close()
	churned(t, s, 2<<20)
	before := s.Stats()
	if before.LiveBytes != before.JournalBytes || before.AppendedBytes != before.JournalBytes {
		t.Fatalf("before any compaction: %+v", before)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions != 1 || st.CompactionErrors != 0 || st.CompactionS <= 0 || st.CompactionStallMaxS <= 0 {
		t.Fatalf("compaction figures: %+v", st)
	}
	if st.LiveBytes != st.JournalBytes || st.JournalBytes >= before.JournalBytes/100 || st.AppendedBytes != before.AppendedBytes {
		t.Fatalf("after compaction: %+v, before %+v", st, before)
	}
	compacted := st
	appendAll(t, s, &Record{Op: OpCorpusCreate, Corpus: "x", Payload: bigPayload(1000)})
	created := s.Stats().JournalBytes - compacted.JournalBytes
	appendAll(t, s, &Record{Op: OpCorpusDelete, Corpus: "x"})
	st = s.Stats()
	// The delete dropped the create from the live bytes and adds none.
	if st.LiveBytes != compacted.LiveBytes || st.JournalBytes <= compacted.JournalBytes+created {
		t.Fatalf("after a create and delete: %+v, compacted %+v", st, compacted)
	}
	if st.AppendedBytes != before.AppendedBytes+st.JournalBytes-compacted.JournalBytes {
		t.Fatalf("appended bytes %d, want %d", st.AppendedBytes, before.AppendedBytes+st.JournalBytes-compacted.JournalBytes)
	}
}

// copyDir copies dir's files into dst: a crash's image of the directory.
func copyDir(t *testing.T, dir, dst string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestCompactionCrashSafety fails each step of a compaction in turn. A
// crash as the step begins (the directory copied then) reopens to the
// acknowledged state, whole, with a stale journal.tmp removed; the failed
// compaction counts its error and leaves a journal that still takes
// appends and reopens to the acknowledged state, those appends included.
func TestCompactionCrashSafety(t *testing.T) {
	names := []string{"create", "prefix", "tail", "fsync", "rename", "dirsync"}
	for st := stepCreate; st <= stepSyncDir; st++ {
		t.Run(names[st], func(t *testing.T) {
			dir, crash := t.TempDir(), t.TempDir()
			s := openFile(t, dir)
			churned(t, s, 2<<20)
			want := storeFold(t, s)
			// A failed directory fsync fails the next append's retry too.
			fails := 1
			if st == stepSyncDir {
				fails = 2
			}
			s.fault = func(at compactStep) error {
				if at != st || fails == 0 {
					return nil
				}
				if fails--; fails == 0 || st == stepSyncDir && fails == 1 {
					copyDir(t, dir, crash)
				}
				return ErrInjected
			}
			if err := s.Compact(); !errors.Is(err, ErrInjected) {
				t.Fatalf("Compact: %v", err)
			}
			if n := s.Stats().CompactionErrors; n != 1 {
				t.Fatalf("%d compaction errors counted", n)
			}
			ack := &Record{Op: OpSessionAnswer, Verifier: "v1", Session: "s1", Payload: []byte(`{"a":1}`)}
			if st == stepSyncDir {
				if err := s.Append(ack); !errors.Is(err, ErrInjected) {
					t.Fatalf("append past an unsynced rename: %v", err)
				}
			}
			appendAll(t, s, ack)
			acked := storeFold(t, s)
			ackLine := foldOf(t, journalOf(t, []*Record{{Op: OpSessionCreate, Verifier: "v1", Session: "s1"}, ack})).live[1]
			if !reflect.DeepEqual(acked, foldState{append(slices.Clone(want.live), ackLine), want.mark}) {
				t.Fatalf("acknowledged append missing: %+v", acked)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if exists(filepath.Join(dir, tmpName)) {
				t.Fatalf("a failed compaction left %s", tmpName)
			}
			s = openFile(t, dir)
			if got := storeFold(t, s); !reflect.DeepEqual(got, acked) {
				t.Fatalf("reopened after the failure:\n  got  %+v\n  want %+v", got, acked)
			}
			s.Close()

			if had := exists(filepath.Join(crash, tmpName)); had != (st > stepCreate && st < stepSyncDir) {
				t.Fatalf("crash image holds %s: %v", tmpName, had)
			}
			c := openFile(t, crash)
			defer c.Close()
			if exists(filepath.Join(crash, tmpName)) {
				t.Fatalf("open left a stale %s", tmpName)
			}
			if got := storeFold(t, c); !reflect.DeepEqual(got, want) {
				t.Fatalf("crash image:\n  got  %+v\n  want %+v", got, want)
			}
		})
	}
}

// TestCompactionRacesAppends: appends made while a compaction runs, in
// either phase, are each replayed exactly once and in order; Replay
// numbers the compacted journal 1..n and Append goes on at n+1.
func TestCompactionRacesAppends(t *testing.T) {
	dir := t.TempDir()
	s := openFile(t, dir)
	churned(t, s, 2<<20)
	inPhase1, phase2 := make(chan struct{}), make(chan struct{})
	s.fault = func(at compactStep) error {
		if at == stepPrefix {
			close(inPhase1)
			<-phase2
		}
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- s.Compact() }()
	<-inPhase1
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if g == 0 && i == each/2 {
					close(phase2)
				}
				rec := &Record{Op: OpSessionAnswer, Verifier: "v1", Session: "s1", Payload: []byte(fmt.Sprintf(`{"g":%d,"i":%d}`, g, i))}
				if err := s.Append(rec); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	check := func(s *File) {
		t.Helper()
		recs := replayAll(t, s)
		next := make([]int, writers)
		for i, rec := range recs {
			if rec.Seq != uint64(i)+1 {
				t.Fatalf("record %d has seq %d", i, rec.Seq)
			}
			var g, n int
			if _, err := fmt.Sscanf(string(rec.Payload), `{"g":%d,"i":%d}`, &g, &n); err != nil {
				continue
			}
			if n != next[g] {
				t.Fatalf("writer %d: answer %d replayed where %d was due", g, n, next[g])
			}
			next[g]++
		}
		for g, n := range next {
			if n != each {
				t.Fatalf("writer %d: %d of %d answers replayed", g, n, each)
			}
		}
		if uint64(len(recs)) != s.Stats().Records {
			t.Fatalf("replayed %d records, Stats says %d", len(recs), s.Stats().Records)
		}
		rec := &Record{Op: OpSessionAnswer, Verifier: "v1", Session: "s1", Payload: []byte(`{}`)}
		appendAll(t, s, rec)
		if rec.Seq != uint64(len(recs))+1 {
			t.Fatalf("append after %d records got seq %d", len(recs), rec.Seq)
		}
	}
	check(s)
	if got := s.Stats(); got.Compactions != 1 || got.JournalBytes > 1<<20 {
		t.Fatalf("stats: %+v", got)
	}
	s = reopen(t, s)
	defer s.Close()
	// Reopened: the extra answers the first check appended now come
	// after the writers', and the numbering still runs 1..n.
	check(s)
}

// TestCloseWaitsForCompaction: Close waits for a running compaction,
// which then abandons its work, and no goroutine outlives the store.
func TestCloseWaitsForCompaction(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	s := openFile(t, dir)
	inPhase1, release := make(chan struct{}), make(chan struct{})
	s.fault = func(at compactStep) error {
		if at == stepPrefix {
			close(inPhase1)
			<-release
		}
		return nil
	}
	churned(t, s, 5<<20) // its deletes cross the floor
	<-inPhase1
	want := storeFold(t, s)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a compaction ran", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if exists(filepath.Join(dir, tmpName)) {
		t.Fatalf("an abandoned compaction left %s", tmpName)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the store", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s = openFile(t, dir)
	defer s.Close()
	if got := storeFold(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Close:\n  got  %+v\n  want %+v", got, want)
	}
}
