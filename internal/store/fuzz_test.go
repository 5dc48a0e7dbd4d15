package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

func newBufReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// FuzzJournalDecode pins the codec's crash-safety contract on arbitrary
// bytes: decoding never panics, never allocates past the record cap, and
// classifies every journal as a clean prefix plus (optionally) one
// torn/corrupt tail — the offset it reports always points at a frame
// boundary that re-decodes cleanly. The open scan, which checks frames
// without decoding records, keeps every frame the decoder accepts.
func FuzzJournalDecode(f *testing.F) {
	// Seed corpus: an empty journal, intact journals of one and two
	// records, every truncation point of a valid frame, and targeted
	// header damage.
	frame, err := AppendRecord(nil, &Record{Seq: 1, Op: OpCorpusCreate, Corpus: "c1", Payload: []byte(`{"relations":[]}`)})
	if err != nil {
		f.Fatal(err)
	}
	second, err := AppendRecord(nil, &Record{Seq: 2, Op: OpRelationPut, Corpus: "c1", Relation: "r", Payload: []byte(`{"name":"r","csv":"k\nA\n"}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(frame)
	f.Add(append(append([]byte{}, frame...), second...))
	for cut := 1; cut < len(frame); cut++ {
		f.Add(frame[:cut])
	}
	// Checksum flipped.
	bad := append([]byte{}, frame...)
	bad[4] ^= 0xff
	f.Add(bad)
	// Length field inflated past the cap.
	huge := append([]byte{}, frame...)
	binary.LittleEndian.PutUint32(huge[0:4], maxRecordBytes+1)
	f.Add(huge)
	// Valid frame whose payload is not JSON.
	notJSON := []byte("definitely not json")
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(notJSON)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(notJSON, crcTable))
	f.Add(append(append([]byte{}, hdr[:]...), notJSON...))
	// Intact record followed by garbage.
	f.Add(append(append([]byte{}, frame...), 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs int
		off, err := ScanJournal(bytes.NewReader(data), func(rec *Record) error {
			if rec == nil {
				t.Fatal("ScanJournal passed a nil record")
			}
			recs++
			return nil
		})
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d outside journal of %d bytes", off, len(data))
		}
		if err != nil && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan verdict %v, want nil, ErrTorn or ErrCorrupt", err)
		}
		if err == nil && off != int64(len(data)) {
			t.Fatalf("clean scan stopped at %d of %d bytes", off, len(data))
		}
		// The reported prefix must itself be a clean journal with the
		// same records — this is what file recovery truncates to.
		n2, err2 := ScanJournal(bytes.NewReader(data[:off]), nil)
		if err2 != nil || n2 != off {
			t.Fatalf("prefix [0:%d] does not rescan cleanly: off=%d err=%v", off, n2, err2)
		}
		// Decoding record-by-record agrees with the scan.
		br := newBufReader(data)
		var recs2 int
		for {
			_, _, derr := DecodeRecord(br)
			if derr != nil {
				if !errors.Is(derr, io.EOF) && !errors.Is(derr, ErrTorn) && !errors.Is(derr, ErrCorrupt) {
					t.Fatalf("DecodeRecord verdict %v", derr)
				}
				break
			}
			recs2++
		}
		if recs != recs2 {
			t.Fatalf("ScanJournal saw %d records, DecodeRecord loop saw %d", recs, recs2)
		}
		// The open scan keeps at least the frames the full decoder
		// accepts, and exactly those when the decoder reached a clean end
		// or a frame the open scan also rejects.
		frames, soff, serr := scanFrames(bytes.NewReader(data))
		if soff < off || frames < uint64(recs) {
			t.Fatalf("open scan kept %d frames (%d bytes), the decoder %d records (%d bytes)", frames, soff, recs, off)
		}
		if soff == off && (frames != uint64(recs) || (serr == nil) != (err == nil)) {
			t.Fatalf("open scan: %d frames, %v; decoder: %d records, %v", frames, serr, recs, err)
		}
		if err == nil && (serr != nil || soff != off) {
			t.Fatalf("open scan failed a clean journal: %v at %d", serr, soff)
		}
	})
}
