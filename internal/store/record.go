package store

import "encoding/json"

// Op names one journaled mutation kind.
type Op string

// The journaled operations. Every accepted mutation of the service
// registry maps to exactly one op; replaying them in journal order
// rebuilds the acknowledged state.
const (
	// OpCorpusCreate registers a corpus; the payload is a CorpusPayload
	// dump of its relations at creation time (empty for corpora created
	// bare and populated by later OpRelationPut records).
	OpCorpusCreate Op = "corpus.create"
	// OpCorpusDelete drops a corpus and cascades over its verifiers.
	OpCorpusDelete Op = "corpus.delete"
	// OpRelationPut uploads (or replaces) one relation; the payload is a
	// RelationPayload.
	OpRelationPut Op = "relation.put"
	// OpRelationDelete drops one relation from a corpus.
	OpRelationDelete Op = "relation.delete"
	// OpVerifierCreate trains a verifier; the payload (defined by the
	// service layer) carries the training document and model options.
	OpVerifierCreate Op = "verifier.create"
	// OpVerifierDelete drops a verifier.
	OpVerifierDelete Op = "verifier.delete"
	// OpSessionCreate parks an interactive session; the payload (defined
	// by the service layer) carries the document and run options.
	OpSessionCreate Op = "session.create"
	// OpSessionAnswer records one accepted session answer; the payload is
	// the answer JSON. Answers are journaled in apply order (the session
	// lock serializes them), which is what makes replay deterministic.
	OpSessionAnswer Op = "session.answer"
	// OpSessionDelete removes a session (explicit delete or TTL
	// eviction), so replay never resurrects it.
	OpSessionDelete Op = "session.delete"
	// OpWatermark opens a compacted journal; the payload is a
	// WatermarkPayload. It is the one op the service never appends.
	OpWatermark Op = "journal.watermark"
)

// Record is one journal entry. The resource-ID fields identify what the op
// touches; Payload carries the op-specific body.
type Record struct {
	// Seq is the record's 1-based position in the journal, assigned by
	// the store on Append and restored on Replay.
	Seq uint64 `json:"seq,omitempty"`
	// Op is the mutation kind.
	Op Op `json:"op"`
	// Corpus, Verifier, Session and Relation identify the touched
	// resources (empty when not applicable).
	Corpus   string `json:"corpus,omitempty"`
	Verifier string `json:"verifier,omitempty"`
	Session  string `json:"session,omitempty"`
	Relation string `json:"relation,omitempty"`
	// Payload is the op-specific body (see the payload types).
	Payload json.RawMessage `json:"payload,omitempty"`
}

// clone deep-copies a record so stores never alias caller memory.
func (r *Record) clone() *Record {
	cp := *r
	if r.Payload != nil {
		cp.Payload = append(json.RawMessage(nil), r.Payload...)
	}
	return &cp
}

// RelationPayload is the OpRelationPut body: one relation serialised as
// CSV (first column is the key attribute) plus its free-form metadata.
type RelationPayload struct {
	Name string            `json:"name"`
	CSV  string            `json:"csv"`
	Meta map[string]string `json:"meta,omitempty"`
}

// WatermarkPayload is the OpWatermark body: the highest corpus and
// verifier numbers minted before the compaction, whose records it may
// have dropped.
type WatermarkPayload struct {
	Corpus   uint64 `json:"corpus"`
	Verifier uint64 `json:"verifier"`
}

// CorpusPayload is the OpCorpusCreate body: the corpus's relations at
// registration time.
type CorpusPayload struct {
	Relations []RelationPayload `json:"relations,omitempty"`
}
