// Package store is the pluggable persistence layer behind the durable
// multi-tenant service: a write-ahead journal of accepted mutations,
// abstracted as the Store interface so the registry can run against an
// embedded single-node backend (File), an in-memory backend for tests
// (Memory), or a fault-injecting wrapper for crash-recovery tests (Faulty).
//
// # Journal
//
// The journal is an ordered log of Records. Each record names one accepted
// mutation of the service registry — a corpus created with its relation
// dump, a relation uploaded or dropped, a verifier trained from a journaled
// training document, a session created with its document, or one session
// answer — with an op-specific JSON payload. The service appends a record
// after the mutation is applied and before the request is acknowledged, so
// on restart, replaying the journal in order rebuilds exactly the
// acknowledged state: corpora are reconstructed from their relation CSV,
// verifiers are deterministically retrained from the journaled training
// document, and live sessions are re-parked by answer-log replay. The
// journal is the only durable state: a classifier is a deterministic
// function of its training document and options, so no model blob is
// stored beside it.
//
// # Record framing
//
// On disk each record is framed as a little-endian uint32 payload length,
// a CRC32-C checksum of the payload, and the JSON payload itself. The
// framing makes torn writes detectable: a crash mid-append leaves a tail
// that fails the length or checksum test, and opening the store truncates
// the journal back to the last intact record — the torn record was never
// acknowledged, so dropping it is exactly the write-ahead contract. The
// codec never half-applies: DecodeRecord either returns a fully decoded
// record or an error (io.EOF at a clean end, ErrTorn for a truncated tail,
// ErrCorrupt for checksum/format damage), and it never panics on arbitrary
// input (pinned by FuzzJournalDecode).
//
// Opening a file store checks frames without decoding records: length,
// checksum and that the payload is JSON. A payload that is not JSON is
// part of a damaged tail and truncated; a checksum-intact JSON payload
// that is not a Record, which Append cannot write, is kept, and Replay —
// the one decoder of records — reports it as ErrCorrupt.
//
// # Decoding JSON
//
// The journal's JSON goes through one scanner. The open scan validates
// each payload with a skip that gives json.Valid's verdict on every input
// (nesting limit included), but reads string bodies, nearly all of a
// journal's bytes, eight at a time instead of calling a state function
// per byte. Replay decodes records, and recovery decodes corpus dumps and
// relation puts (DecodeCorpusPayload, DecodeRelationPayload), in one pass
// over the canonical bytes that AppendRecord and json.Marshal write: no
// whitespace, fields in declared order, empty omitempty fields left out;
// a record's payload is taken as its validated raw value. Anything else
// — another field order, whitespace, a surrogate escape, invalid UTF-8,
// a null where a string goes, an empty meta object, a seq that overflows
// — goes to json.Unmarshal unchanged, so every input decodes to
// encoding/json's value or error text (pinned by FuzzJSONScanner).
package store
