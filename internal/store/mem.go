package store

import (
	"errors"
	"sync"
	"time"
)

// ErrClosed reports a write against a closed store.
var ErrClosed = errors.New("store: closed")

// Memory is a Store held entirely in memory. It honours the full journal
// contract (append order, deep-copied records) without any durability — it
// exists for tests and for running the service "as before" when no data
// directory is configured.
type Memory struct {
	mu      sync.Mutex
	records []*Record
	bytes   int64
	last    time.Time
	closed  bool
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *Memory { return &Memory{} }

func (m *Memory) Append(rec *Record) error {
	// Encode outside the critical section only to size-check; the frame
	// bytes are discarded, memory keeps the decoded record.
	frame, err := AppendRecord(nil, rec)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	cp := rec.clone()
	cp.Seq = uint64(len(m.records)) + 1
	m.records = append(m.records, cp)
	m.bytes += int64(len(frame))
	m.last = time.Now()
	rec.Seq = cp.Seq
	return nil
}

func (m *Memory) Replay(fn func(*Record) error) error {
	m.mu.Lock()
	recs := make([]*Record, len(m.records))
	copy(recs, m.records)
	m.mu.Unlock()
	for _, rec := range recs {
		if err := fn(rec.clone()); err != nil {
			return err
		}
	}
	return nil
}

func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Backend:       "memory",
		Records:       uint64(len(m.records)),
		JournalBytes:  m.bytes,
		LiveBytes:     m.bytes,
		AppendedBytes: m.bytes,
		LastAppend:    m.last,
	}
}

func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// CloneWithPrefix returns a fresh Memory store holding the first n journal
// records. Recovery property tests use it to assert that any journal prefix
// recovers to the same state as replaying that prefix against a fresh
// service.
func (m *Memory) CloneWithPrefix(n int) *Memory {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > len(m.records) {
		n = len(m.records)
	}
	cp := NewMemoryStore()
	for _, rec := range m.records[:n] {
		cp.records = append(cp.records, rec.clone())
	}
	return cp
}
