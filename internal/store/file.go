package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const journalName = "journal.wal"

// File is the embedded single-node Store: one append-only journal file under
// a data directory. Appends are fsynced before they return, so an
// acknowledged mutation survives a crash; torn tails from a crash mid-append
// are detected by the frame checksums and truncated away on the next open.
type File struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	buf     []byte
	records uint64
	bytes   int64
	last    time.Time
	torn    bool
	closed  bool
}

// OpenFileStore opens (creating as needed) a file store rooted at dir. If
// the journal has a torn or corrupt tail — a crash mid-append — it is
// truncated back to the last intact record before the store is returned;
// Stats().TornTailRecovered reports that this happened.
func OpenFileStore(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	st := &File{dir: dir, f: f}
	var count uint64
	off, err := ScanJournal(f, func(*Record) error { count++; return nil })
	if err != nil {
		if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			f.Close()
			return nil, fmt.Errorf("store: scanning journal: %w", err)
		}
		// A damaged tail past the last intact record: the record it
		// belonged to was never acknowledged, so drop it.
		if terr := f.Truncate(off); terr != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn journal tail: %w", terr)
		}
		if serr := f.Sync(); serr != nil {
			f.Close()
			return nil, fmt.Errorf("store: syncing truncated journal: %w", serr)
		}
		st.torn = true
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking journal end: %w", err)
	}
	st.records = count
	st.bytes = off
	return st, nil
}

// Dir returns the store's data directory.
func (s *File) Dir() string { return s.dir }

func (s *File) Append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	seq := s.records + 1
	cp := *rec
	cp.Seq = seq
	frame, err := AppendRecord(s.buf[:0], &cp)
	if err != nil {
		return err
	}
	s.buf = frame[:0]
	if _, err := s.f.Write(frame); err != nil {
		return fmt.Errorf("store: appending journal record: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing journal: %w", err)
	}
	s.records = seq
	s.bytes += int64(len(frame))
	s.last = time.Now()
	rec.Seq = seq
	return nil
}

func (s *File) Replay(fn func(*Record) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Replay from a separate handle so the append offset is undisturbed.
	f, err := os.Open(filepath.Join(s.dir, journalName))
	if err != nil {
		return fmt.Errorf("store: opening journal for replay: %w", err)
	}
	defer f.Close()
	_, err = ScanJournal(io.LimitReader(f, s.bytes), fn)
	return err
}

func (s *File) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Backend:           "file",
		Records:           s.records,
		JournalBytes:      s.bytes,
		LastAppend:        s.last,
		TornTailRecovered: s.torn,
	}
}

func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// appendTorn writes a deliberately truncated frame for rec — the first half
// of what Append would have written — simulating a crash mid-append. The
// torn bytes are synced so a subsequent OpenFileStore really sees them.
// Fault-injection only; never called on the normal write path.
func (s *File) appendTorn(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	cp := *rec
	cp.Seq = s.records + 1
	frame, err := AppendRecord(nil, &cp)
	if err != nil {
		return err
	}
	cut := len(frame)/2 + 1
	if cut > len(frame) {
		cut = len(frame)
	}
	if _, err := s.f.Write(frame[:cut]); err != nil {
		return fmt.Errorf("store: writing torn frame: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing torn frame: %w", err)
	}
	// Deliberately leave records/bytes unchanged: the record was not
	// acknowledged and Replay must not see it.
	return nil
}
