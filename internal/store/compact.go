package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Compaction rewrites the journal to its live records; the package doc
// and DESIGN.md §3.1 give the trigger, the two phases and the crash
// argument.

const (
	tmpName = "journal.tmp"
	// compactFloor is how much a journal must grow past its size at open
	// or after the last compaction before a delete compacts it (it must
	// also have doubled). Replaying 4 MiB of dead records adds about
	// 15 ms to a restart.
	compactFloor = 4 << 20
)

// compactStep names one step of a compaction, for the fault seam.
type compactStep int

const (
	stepCreate  compactStep = iota // create journal.tmp
	stepPrefix                     // copy the prefix's survivors
	stepTail                       // splice the tail
	stepSync                       // fsync journal.tmp
	stepRename                     // rename it over the journal
	stepSyncDir                    // fsync the data directory
)

// compactStats are the compaction figures Stats reports.
type compactStats struct {
	done, failed uint64
	lastS        float64 // wall time of the last compaction
	stallMaxS    float64 // longest phase 2, which appends wait on
}

// sinceRecord is a record appended while a compaction's phase 1 ran,
// kept so its fold can be brought up to date at the swap.
type sinceRecord struct {
	rec  Record // the header; the payload only for a watermark
	size int64
}

// frameSpan locates one frame in a journal file.
type frameSpan struct{ off, n int64 }

// isDelete reports the ops whose durable append may start a compaction.
func isDelete(op Op) bool {
	return op == OpCorpusDelete || op == OpVerifierDelete || op == OpSessionDelete
}

// afterAppend folds a durable append into the compaction state and, for
// a delete that finds the journal at least doubled and grown by the floor
// since open or the last compaction, starts a compaction. s.mu is held.
func (s *File) afterAppend(rec *Record, size int64) {
	if s.compacting {
		h := *rec
		if rec.Op != OpWatermark {
			h.Payload = nil
		}
		s.since = append(s.since, sinceRecord{rec: h, size: size})
	}
	if s.fold != nil && s.fold.Add(rec, size, frameSpan{}) != nil {
		s.fold = nil
	}
	if isDelete(rec.Op) && !s.compacting && s.bytes >= 2*s.base && s.bytes-s.base >= compactFloor {
		s.compacting = true
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.compactNow()
		}()
	}
}

// Compact rewrites the journal to its live records now, after any
// compaction already running, and returns once it is done.
func (s *File) Compact() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	return s.compactNow()
}

// compactNow runs one compaction and books its outcome. A failure leaves
// the journal as it was and waits for it to double again before the next
// try.
func (s *File) compactNow() error {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	start := time.Now()
	s.mu.Lock()
	s.compacting = true
	cut, cutRecords := s.bytes, s.records
	s.since = nil // appends before the cut are the prefix's
	s.mu.Unlock()

	err := s.compact(cut, cutRecords)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacting = false
	s.since = nil
	switch {
	case err == nil:
		s.stats.done++
		s.stats.lastS = time.Since(start).Seconds()
	case errors.Is(err, ErrClosed):
	default:
		s.stats.failed++
		s.base = s.bytes
	}
	return err
}

// step runs the fault seam before a compaction step.
func (s *File) step(st compactStep) error {
	if s.fault != nil {
		return s.fault(st)
	}
	return nil
}

// syncDir fsyncs the data directory, making a rename in it durable.
func (s *File) syncDir() error {
	if err := s.step(stepSyncDir); err != nil {
		return err
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// compact rewrites the journal's first cut bytes, holding cutRecords
// records, to their survivors, then splices on what was appended since.
func (s *File) compact(cut int64, cutRecords uint64) error {
	path := filepath.Join(s.dir, journalName)
	tmpPath := filepath.Join(s.dir, tmpName)
	src, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: opening journal to compact: %w", err)
	}
	defer src.Close()

	// Phase 1: no lock.
	if err := s.step(stepCreate); err != nil {
		return err
	}
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", tmpName, err)
	}
	swapped := false
	defer func() {
		if !swapped {
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()
	w := bufio.NewWriterSize(tmp, 256<<10)
	fold, err := foldJournal(src, cut)
	if err != nil {
		return fmt.Errorf("store: folding journal to compact: %w", err)
	}
	if err := s.step(stepPrefix); err != nil {
		return err
	}
	wmSize, written, kept, err := writeCompacted(w, src, fold)
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", tmpName, err)
	}

	// Phase 2: appends wait.
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	defer func() { s.stats.stallMaxS = max(s.stats.stallMaxS, time.Since(start).Seconds()) }()
	if s.closed {
		return ErrClosed
	}
	if err := s.step(stepTail); err != nil {
		return err
	}
	tail := s.bytes - cut
	if _, err := io.Copy(w, io.NewSectionReader(src, cut, tail)); err != nil {
		return fmt.Errorf("store: splicing journal tail: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("store: writing %s: %w", tmpName, err)
	}
	if err := s.step(stepSync); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", tmpName, err)
	}
	if err := s.step(stepRename); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		return fmt.Errorf("store: replacing journal: %w", err)
	}
	// The journal's name now belongs to the compacted file: append there.
	swapped = true
	s.f.Close() // the old journal, synced and now unlinked
	s.f = tmp
	s.records = kept + s.records - cutRecords
	s.bytes = written + tail
	s.base = s.bytes
	s.watermark = wmSize
	for _, r := range s.since {
		if fold.Add(&r.rec, r.size, frameSpan{}) != nil {
			fold = nil
			break
		}
	}
	s.fold = fold
	if err := s.syncDir(); err != nil {
		s.dirSync = true
		return fmt.Errorf("store: syncing data dir: %w", err)
	}
	return nil
}

// foldJournal folds the first size bytes of a journal, keeping each
// surviving record's frame span.
func foldJournal(src io.ReaderAt, size int64) (*Fold[frameSpan], error) {
	fold := NewFold[frameSpan]()
	br := bufio.NewReaderSize(io.NewSectionReader(src, 0, size), 256<<10)
	var (
		buf []byte
		off int64
	)
	for {
		// The fold keeps no record and reads a payload, a watermark's,
		// only while folding it: the payload may stay in buf.
		rec, n, err := decodeRecord(br, &buf, decodeRecordView)
		if errors.Is(err, io.EOF) {
			return fold, nil
		}
		if err != nil {
			return nil, err
		}
		if err := fold.Add(rec, int64(n), frameSpan{off, int64(n)}); err != nil {
			return nil, err
		}
		off += int64(n)
	}
}

// writeCompacted writes a folded journal's compacted form to w: the
// watermark record, then each surviving frame of src byte for byte, in
// journal order. It returns the watermark frame's size, the bytes written
// and the records written.
func writeCompacted(w io.Writer, src io.ReaderAt, fold *Fold[frameSpan]) (int64, int64, uint64, error) {
	payload, err := json.Marshal(fold.Watermark())
	if err != nil {
		return 0, 0, 0, err
	}
	frame, err := AppendRecord(nil, &Record{Op: OpWatermark, Payload: payload})
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := w.Write(frame); err != nil {
		return 0, 0, 0, err
	}
	written := int64(len(frame))
	live := fold.Live()
	for i := 0; i < len(live); {
		// Copy each run of adjacent survivors in one piece.
		start, end := live[i].off, live[i].off+live[i].n
		for i++; i < len(live) && live[i].off == end; i++ {
			end += live[i].n
		}
		n, err := io.Copy(w, io.NewSectionReader(src, start, end-start))
		written += n
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return int64(len(frame)), written, uint64(len(live)) + 1, nil
}
