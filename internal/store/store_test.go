package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func testRecord(op Op, corpus string, payload string) *Record {
	rec := &Record{Op: op, Corpus: corpus}
	if payload != "" {
		rec.Payload = []byte(payload)
	}
	return rec
}

func appendAll(t *testing.T, s Store, recs ...*Record) {
	t.Helper()
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append(%v): %v", rec.Op, err)
		}
	}
}

func replayAll(t *testing.T, s Store) []*Record {
	t.Helper()
	var got []*Record
	if err := s.Replay(func(rec *Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func checkRecords(t *testing.T, got []*Record, want ...*Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Seq != uint64(i)+1 {
			t.Errorf("record %d: Seq = %d, want %d", i, rec.Seq, i+1)
		}
		if rec.Op != want[i].Op || rec.Corpus != want[i].Corpus {
			t.Errorf("record %d: (%s, %q), want (%s, %q)", i, rec.Op, rec.Corpus, want[i].Op, want[i].Corpus)
		}
		if !bytes.Equal(rec.Payload, want[i].Payload) {
			t.Errorf("record %d: payload %q, want %q", i, rec.Payload, want[i].Payload)
		}
	}
}

// storeContract runs the behavior every Store implementation must share.
func storeContract(t *testing.T, open func(t *testing.T) Store) {
	t.Run("AppendReplay", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		recs := []*Record{
			testRecord(OpCorpusCreate, "c1", `{"relations":[]}`),
			testRecord(OpRelationPut, "c1", `{"name":"r","csv":"k\nA\n"}`),
			testRecord(OpCorpusDelete, "c1", ""),
		}
		appendAll(t, s, recs...)
		checkRecords(t, replayAll(t, s), recs...)
		if st := s.Stats(); st.Records != 3 || st.JournalBytes <= 0 {
			t.Errorf("Stats = %+v, want 3 records and positive bytes", st)
		}
	})

	t.Run("SeqAssigned", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		rec := testRecord(OpCorpusCreate, "c1", "")
		appendAll(t, s, rec)
		if rec.Seq != 1 {
			t.Errorf("Append assigned Seq %d, want 1", rec.Seq)
		}
	})

	t.Run("ClosedRejectsWrites", func(t *testing.T) {
		s := open(t)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := s.Append(testRecord(OpCorpusCreate, "c1", "")); !errors.Is(err, ErrClosed) {
			t.Errorf("Append after Close: %v, want ErrClosed", err)
		}
	})
}

func TestMemoryStore(t *testing.T) {
	storeContract(t, func(t *testing.T) Store { return NewMemoryStore() })
}

func TestFileStore(t *testing.T) {
	storeContract(t, func(t *testing.T) Store {
		s, err := OpenFileStore(t.TempDir())
		if err != nil {
			t.Fatalf("OpenFileStore: %v", err)
		}
		return s
	})
}

func TestMemoryStoreIsolatesCallerRecords(t *testing.T) {
	s := NewMemoryStore()
	rec := testRecord(OpRelationPut, "c1", `{"name":"r"}`)
	appendAll(t, s, rec)
	rec.Payload[2] = 'X' // mutate after append; the store must hold a copy
	got := replayAll(t, s)
	if string(got[0].Payload) != `{"name":"r"}` {
		t.Errorf("store aliased caller payload: %q", got[0].Payload)
	}
}

func TestFileStoreReopenPreservesJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	recs := []*Record{
		testRecord(OpCorpusCreate, "c1", ""),
		testRecord(OpRelationPut, "c1", `{"name":"r","csv":"k\n"}`),
	}
	appendAll(t, s, recs...)
	s.Close()

	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	checkRecords(t, replayAll(t, s2), recs...)
	if st := s2.Stats(); st.TornTailRecovered {
		t.Error("clean reopen reported a torn tail")
	}
	// The journal is the store's only file: no side directories appear.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != journalName {
		t.Errorf("data dir holds %v (%v), want only %s", entries, err, journalName)
	}
	// Appends continue the sequence.
	next := testRecord(OpCorpusDelete, "c1", "")
	appendAll(t, s2, next)
	if next.Seq != 3 {
		t.Errorf("post-reopen Seq = %d, want 3", next.Seq)
	}
}

func TestFileStoreTruncatesTornTail(t *testing.T) {
	for _, cut := range []struct {
		name  string
		bytes int // bytes of the torn frame to keep
	}{
		{"MidHeader", 3},
		{"MidPayload", frameHeaderLen + 5},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenFileStore(dir)
			if err != nil {
				t.Fatalf("OpenFileStore: %v", err)
			}
			keep := testRecord(OpCorpusCreate, "c1", `{"relations":[]}`)
			appendAll(t, s, keep)
			s.Close()

			// Simulate a crash mid-append: write part of a valid frame.
			torn, err := AppendRecord(nil, testRecord(OpRelationPut, "c1", `{"name":"r","csv":"k\nA\n"}`))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, journalName)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(torn[:cut.bytes]); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2, err := OpenFileStore(dir)
			if err != nil {
				t.Fatalf("reopen over torn tail: %v", err)
			}
			defer s2.Close()
			checkRecords(t, replayAll(t, s2), keep)
			if st := s2.Stats(); !st.TornTailRecovered {
				t.Error("Stats did not report the recovered torn tail")
			}
			// The journal file itself must have been truncated.
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != s2.Stats().JournalBytes {
				t.Errorf("journal file is %d bytes, stats say %d", info.Size(), s2.Stats().JournalBytes)
			}
			// And new appends after recovery are readable.
			next := testRecord(OpCorpusDelete, "c1", "")
			appendAll(t, s2, next)
			checkRecords(t, replayAll(t, s2), keep, next)
		})
	}
}

func TestFileStoreTruncatesCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	keep := testRecord(OpCorpusCreate, "c1", "")
	appendAll(t, s, keep)
	s.Close()

	// A complete frame whose checksum lies.
	frame, err := AppendRecord(nil, testRecord(OpRelationPut, "c1", `{"name":"r"}`))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(frame[4:8], binary.LittleEndian.Uint32(frame[4:8])^0xdeadbeef)
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("reopen over corrupt tail: %v", err)
	}
	defer s2.Close()
	checkRecords(t, replayAll(t, s2), keep)
	if !s2.Stats().TornTailRecovered {
		t.Error("Stats did not report the recovered corrupt tail")
	}
}

func TestFaultyStoreCutsAfterBudget(t *testing.T) {
	inner := NewMemoryStore()
	s := NewFaulty(inner, 2, false)
	appendAll(t, s, testRecord(OpCorpusCreate, "c1", ""), testRecord(OpRelationPut, "c1", `{"name":"r"}`))
	if s.Tripped() {
		t.Fatal("fault tripped before the budget was spent")
	}
	err := s.Append(testRecord(OpCorpusDelete, "c1", ""))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("third append: %v, want ErrInjected", err)
	}
	if !s.Tripped() {
		t.Fatal("fault did not report tripped")
	}
	// Only the two acknowledged records survive.
	if got := replayAll(t, s); len(got) != 2 {
		t.Fatalf("replayed %d records after the cut, want 2", len(got))
	}
}

func TestFaultyStoreTornWrite(t *testing.T) {
	dir := t.TempDir()
	inner, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewFaulty(inner, 1, true)
	keep := testRecord(OpCorpusCreate, "c1", "")
	appendAll(t, s, keep)
	if err := s.Append(testRecord(OpRelationPut, "c1", `{"name":"r","csv":"k\nA\n"}`)); !errors.Is(err, ErrInjected) {
		t.Fatalf("cut append: %v, want ErrInjected", err)
	}
	inner.Close()

	// The journal now ends in torn bytes; reopening must truncate them.
	info, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("reopen after torn cut: %v", err)
	}
	defer s2.Close()
	if !s2.Stats().TornTailRecovered {
		t.Error("reopen did not report a torn tail — the injection left no torn bytes")
	}
	if s2.Stats().JournalBytes >= info.Size() {
		t.Errorf("journal not truncated: %d bytes, was %d", s2.Stats().JournalBytes, info.Size())
	}
	checkRecords(t, replayAll(t, s2), keep)
}

func TestMemoryCloneWithPrefix(t *testing.T) {
	s := NewMemoryStore()
	recs := []*Record{
		testRecord(OpCorpusCreate, "c1", ""),
		testRecord(OpRelationPut, "c1", `{"name":"r"}`),
		testRecord(OpCorpusDelete, "c1", ""),
	}
	appendAll(t, s, recs...)
	for n := 0; n <= 4; n++ {
		cp := s.CloneWithPrefix(n)
		want := n
		if want > len(recs) {
			want = len(recs)
		}
		if got := replayAll(t, cp); len(got) != want {
			t.Errorf("CloneWithPrefix(%d) replayed %d records, want %d", n, len(got), want)
		}
	}
}

func TestScanJournalStopsAtReaderError(t *testing.T) {
	frame, err := AppendRecord(nil, testRecord(OpCorpusCreate, "c1", ""))
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	off, err := ScanJournal(bytes.NewReader(frame), func(*Record) error {
		calls++
		return io.ErrUnexpectedEOF
	})
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("ScanJournal fn error = %v, want it verbatim", err)
	}
	if calls != 1 || off != int64(len(frame)) {
		t.Errorf("calls=%d off=%d, want 1 and %d", calls, off, len(frame))
	}
}

func TestDecodeRecordRejectsOversizedLength(t *testing.T) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxRecordBytes+1)
	_, _, err := DecodeRecord(newBufReader(hdr[:]))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: %v, want ErrCorrupt", err)
	}
}

func TestDecodeRecordChecksumUsesCastagnoli(t *testing.T) {
	// Pin the table choice: a frame checksummed with IEEE must not decode.
	payload := []byte(`{"op":"corpus.create"}`)
	var frame []byte
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	frame = append(append(frame, hdr[:]...), payload...)
	if _, _, err := DecodeRecord(newBufReader(frame)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("IEEE-checksummed frame decoded: %v, want ErrCorrupt", err)
	}
}
