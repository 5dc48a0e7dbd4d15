package store

import "time"

// Stats is a point-in-time store summary, surfaced by /healthz.
type Stats struct {
	// Backend names the implementation ("file", "memory", "faulty").
	Backend string `json:"backend"`
	// Records is the number of intact journal records.
	Records uint64 `json:"journal_records"`
	// JournalBytes is the journal size in bytes; a compaction shrinks it.
	JournalBytes int64 `json:"journal_bytes"`
	// LiveBytes is what the last compaction's fold kept plus the live
	// part of what was appended since, so JournalBytes − LiveBytes is
	// what a compaction would drop now. Before a compaction it is the
	// journal size, since nothing has been folded.
	LiveBytes int64 `json:"journal_live_bytes"`
	// AppendedBytes counts the bytes appended since open; unlike
	// JournalBytes, it never shrinks.
	AppendedBytes int64 `json:"appended_bytes"`
	// Compactions and CompactionErrors count the compactions that
	// replaced the journal and those that failed, leaving it as it was.
	Compactions      uint64 `json:"compactions"`
	CompactionErrors uint64 `json:"compaction_errors"`
	// CompactionS is the wall time of the last compaction, and
	// CompactionStallMaxS the longest time a compaction held appends
	// back (its second phase).
	CompactionS         float64 `json:"compaction_s"`
	CompactionStallMaxS float64 `json:"compaction_stall_max_s"`
	// LastAppend is when the journal last grew (zero before any append
	// this process).
	LastAppend time.Time `json:"last_append,omitempty"`
	// TornTailRecovered reports that opening the store found — and
	// truncated — a torn or corrupt journal tail (a crash mid-append).
	TornTailRecovered bool `json:"torn_tail_recovered,omitempty"`
}

// Store is the pluggable persistence backend: an append-only journal of
// accepted mutations. Append must be durable before it returns (for backends
// with a durability story); Replay streams the journal in append order. All
// methods are safe for concurrent use.
type Store interface {
	// Append durably journals one record, assigning Record.Seq.
	Append(rec *Record) error
	// Replay streams every intact journal record in order. Each record
	// passed to fn is freshly allocated, so fn may retain it. An error
	// from fn aborts the replay and is returned.
	Replay(fn func(*Record) error) error
	// Stats summarises the store.
	Stats() Stats
	// Close releases the backend. A closed store rejects writes.
	Close() error
}
