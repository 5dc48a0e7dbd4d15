package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Journal record framing: uint32 little-endian payload length, uint32
// little-endian CRC32-C of the payload, payload JSON. The frame makes torn
// writes (a crash mid-append) detectable so recovery can truncate back to
// the last intact record.

var (
	// ErrTorn marks a journal tail cut mid-record: the frame announces
	// more bytes than the journal holds. Recovery treats it as a crashed
	// append — the record was never acknowledged — and truncates it away.
	ErrTorn = errors.New("store: torn journal record")
	// ErrCorrupt marks a record that is structurally complete but wrong:
	// checksum mismatch, oversized length or malformed JSON. Nothing
	// after a corrupt record can be trusted; recovery truncates from it.
	ErrCorrupt = errors.New("store: corrupt journal record")
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64 and
// arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRecordBytes caps one record's payload. The largest legitimate record
// wraps a 64 MB document upload; 128 MB leaves headroom while keeping a
// corrupt length field from driving a giant allocation.
const maxRecordBytes = 128 << 20

// frameHeaderLen is the per-record framing overhead in bytes.
const frameHeaderLen = 8

// AppendRecord encodes one record and appends its frame to buf, returning
// the extended slice.
func AppendRecord(buf []byte, rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encoding record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("store: record payload %d bytes exceeds the %d byte cap", len(payload), maxRecordBytes)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// DecodeRecord reads one framed record. It returns io.EOF at a clean end
// (the reader is exactly at a frame boundary), ErrTorn when the journal
// ends mid-frame, and ErrCorrupt for checksum or format damage. It never
// returns a partially decoded record. The int is the number of journal
// bytes the record occupied (0 on any error).
func DecodeRecord(r *bufio.Reader) (*Record, int, error) {
	var buf []byte
	return decodeRecord(r, &buf, decodeRecordCanon)
}

// decodeRecord is DecodeRecord reading the payload into *buf, which it
// grows as needed and the caller may reuse, and decoding the record with
// canon: decodeRecordCanon copies what the record keeps, decodeRecordView
// leaves its payload in *buf.
func decodeRecord(r *bufio.Reader, buf *[]byte, canon func(*canonReader, *Record) bool) (*Record, int, error) {
	payload, err := readFrame(r, buf)
	if err != nil {
		return nil, 0, err
	}
	rec, err := decodeCanon(payload, canon)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: payload is not a record: %v", ErrCorrupt, err)
	}
	return &rec, frameHeaderLen + len(payload), nil
}

// readFrame reads one frame's payload into *buf and checks its length and
// checksum; the payload is not interpreted. Errors are those of
// DecodeRecord.
func readFrame(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF // clean end at a frame boundary
		}
		return nil, fmt.Errorf("%w: reading frame header: %v", ErrTorn, err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, fmt.Errorf("%w: journal ends inside a frame header", ErrTorn)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxRecordBytes {
		return nil, fmt.Errorf("%w: frame length %d exceeds the %d byte cap", ErrCorrupt, n, maxRecordBytes)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if rd, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: journal ends %d bytes into a %d byte record", ErrTorn, rd, n)
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, fmt.Errorf("%w: checksum %08x, frame says %08x", ErrCorrupt, got, sum)
	}
	return payload, nil
}

// scanFrames walks r's frames without decoding records: each frame's
// length and checksum are checked and its payload, read into one reused
// buffer, must be JSON (validJSON, json.Valid's verdict). It returns the
// frame count and the offset just past the last intact frame, with
// ScanJournal's verdicts. A frame that is JSON but not a Record passes
// here; ScanJournal, the one full decoder, reports it as ErrCorrupt.
func scanFrames(r io.Reader) (uint64, int64, error) {
	br := bufio.NewReader(r)
	var (
		buf   []byte
		count uint64
		off   int64
	)
	for {
		payload, err := readFrame(br, &buf)
		if errors.Is(err, io.EOF) {
			return count, off, nil
		}
		if err != nil {
			return count, off, err
		}
		if !validJSON(payload) {
			return count, off, fmt.Errorf("%w: payload is not JSON", ErrCorrupt)
		}
		count++
		off += int64(frameHeaderLen + len(payload))
	}
}

// ScanJournal decodes records from r in order, calling fn for each. It
// returns the byte offset just past the last intact record plus the scan
// verdict: nil on a clean end, ErrTorn/ErrCorrupt (wrapped) when the
// journal's tail is damaged — the caller decides whether to truncate (file
// recovery does) or fail. An error from fn aborts the scan and is returned
// verbatim.
func ScanJournal(r io.Reader, fn func(*Record) error) (int64, error) {
	br := bufio.NewReader(r)
	var (
		buf []byte
		off int64
	)
	for {
		rec, n, err := decodeRecord(br, &buf, decodeRecordCanon)
		if errors.Is(err, io.EOF) {
			return off, nil
		}
		if err != nil {
			return off, err
		}
		off += int64(n)
		if fn != nil {
			if err := fn(rec); err != nil {
				return off, err
			}
		}
	}
}
