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

// File is the embedded single-node Store: one journal file under a data
// directory. Appends are fsynced before they return, so an acknowledged
// mutation survives a crash; torn tails from a crash mid-append are
// detected by the frame checksums and truncated away on the next open.
// A durable delete that finds the journal doubled since it was opened or
// last compacted starts a background compaction (compact.go), so the
// journal stays near its live size.
type File struct {
	dir string

	mu       sync.Mutex
	f        *os.File
	buf      []byte
	records  uint64
	bytes    int64
	appended int64
	last     time.Time
	torn     bool
	closed   bool

	// compaction state, guarded by mu; cmu serialises compactions, and
	// wg counts the running one so Close can wait for it.
	cmu        sync.Mutex
	wg         sync.WaitGroup
	compacting bool
	base       int64            // journal size at open or after the last compaction
	fold       *Fold[frameSpan] // the journal's fold since the last compaction; nil before one
	watermark  int64            // the compacted journal's watermark frame size
	since      []sinceRecord    // appends during a compaction's first phase
	dirSync    bool             // the journal was renamed but the directory not synced
	stats      compactStats
	// fault, when set, runs before each compaction step and fails it
	// with its error: the tests' seam into every step.
	fault func(compactStep) error
}

// OpenFileStore opens (creating as needed) a file store rooted at dir. If
// the journal has a torn or corrupt tail — a crash mid-append — it is
// truncated back to the last intact record before the store is returned;
// Stats().TornTailRecovered reports that this happened. A tail is damaged
// when its frame is cut short, fails its checksum or carries a payload
// that is not JSON. A checksum-intact JSON frame that is not a Record is
// kept, with everything after it, and Replay reports it as ErrCorrupt:
// Append never writes one, so it is not a crash's leftover.
func OpenFileStore(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	// A journal.tmp is a compaction that did not finish: the journal it
	// would have replaced is intact.
	if err := os.Remove(filepath.Join(dir, tmpName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		f.Close()
		return nil, fmt.Errorf("store: removing stale %s: %w", tmpName, err)
	}
	st := &File{dir: dir, f: f}
	// The open scan checks frames but decodes no record: Replay decodes
	// each one, once, when the service recovers.
	count, off, err := scanFrames(f)
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
	st.base = off
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
	if s.dirSync {
		// A compaction renamed the journal but could not sync the
		// directory: until it is synced, the rename may not survive a
		// crash, and neither would this record.
		if err := s.syncDir(); err != nil {
			return fmt.Errorf("store: syncing data dir: %w", err)
		}
		s.dirSync = false
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
	s.appended += int64(len(frame))
	s.last = time.Now()
	rec.Seq = seq
	s.afterAppend(&cp, int64(len(frame)))
	return nil
}

// Replay numbers records by their place in the journal: a compaction
// copies frames byte for byte, so the seq a frame carries is the one it
// was appended with.
func (s *File) Replay(fn func(*Record) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Replay from a separate handle so the append offset is undisturbed.
	f, err := os.Open(filepath.Join(s.dir, journalName))
	if err != nil {
		return fmt.Errorf("store: opening journal for replay: %w", err)
	}
	defer f.Close()
	var seq uint64
	_, err = ScanJournal(io.LimitReader(f, s.bytes), func(rec *Record) error {
		seq++
		rec.Seq = seq
		return fn(rec)
	})
	return err
}

func (s *File) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.bytes
	if s.fold != nil {
		live = s.watermark + s.fold.LiveBytes()
	}
	return Stats{
		Backend:             "file",
		Records:             s.records,
		JournalBytes:        s.bytes,
		LiveBytes:           live,
		AppendedBytes:       s.appended,
		Compactions:         s.stats.done,
		CompactionErrors:    s.stats.failed,
		CompactionS:         s.stats.lastS,
		CompactionStallMaxS: s.stats.stallMaxS,
		LastAppend:          s.last,
		TornTailRecovered:   s.torn,
	}
}

// Close waits for a running compaction, which abandons its work if it
// has not yet replaced the journal, then closes the journal.
func (s *File) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
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
