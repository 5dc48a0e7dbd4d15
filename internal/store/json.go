package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the journal's JSON scanner: a validating skip that agrees
// with json.Valid byte for byte, and decoders for the canonical bytes
// AppendRecord and json.Marshal write for Record, CorpusPayload and
// RelationPayload. encoding/json calls a state function for every input
// byte; here string bodies, nearly all of a journal's bytes, are scanned
// eight bytes at a time. A decoder that meets anything it does not expect
// declines, and the caller hands the bytes to json.Unmarshal unchanged, so
// results and error texts are encoding/json's on every input.

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// validJSON reports whether data is one JSON value with optional
// surrounding whitespace: json.Valid's verdict on every input.
func validJSON(data []byte) bool {
	i := skipValue(data, skipWS(data, 0), 0)
	return i >= 0 && skipWS(data, i) == len(data)
}

// skipWS returns the index of the first non-whitespace byte at or after i.
func skipWS(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// skipValue returns the index just past the JSON value that starts exactly
// at data[i], or -1 when none does. depth counts the arrays and objects
// already open around the value, so the nesting limit applies to the
// whole document. The scan keeps its own stack of open containers and
// does not recurse.
func skipValue(data []byte, i, depth int) int {
	var open [64]byte
	stack := open[:0] // '{' or '[' of each container opened here, innermost last
	for {
		if i >= len(data) {
			return -1
		}
		switch c := data[i]; c {
		case '{', '[':
			if depth+len(stack) >= maxNestingDepth {
				return -1
			}
			stack = append(stack, c)
			i = skipWS(data, i+1)
			if i < len(data) && data[i] == c+2 { // '}' and ']' follow their openers by 2
				stack = stack[:len(stack)-1]
				i++
				break
			}
			if c == '{' {
				i = skipKey(data, i)
			}
			if i < 0 {
				return -1
			}
			continue
		case '"':
			end, _, _ := stringEnd(data, i)
			if end < 0 {
				return -1
			}
			i = end + 1
		case 't':
			i = skipLiteral(data, i, "true")
		case 'f':
			i = skipLiteral(data, i, "false")
		case 'n':
			i = skipLiteral(data, i, "null")
		default:
			i = skipNumber(data, i)
		}
		if i < 0 {
			return -1
		}
		// A value ended: close the containers that end here, then step
		// past the comma to the next value.
		for {
			if len(stack) == 0 {
				return i
			}
			if i = skipWS(data, i); i >= len(data) {
				return -1
			}
			top := stack[len(stack)-1]
			if data[i] == top+2 {
				stack = stack[:len(stack)-1]
				i++
				continue
			}
			if data[i] != ',' {
				return -1
			}
			i = skipWS(data, i+1)
			if top == '{' {
				if i = skipKey(data, i); i < 0 {
					return -1
				}
			}
			break
		}
	}
}

// skipKey steps over an object key at data[i], its colon and the
// whitespace after it, returning where the value starts or -1.
func skipKey(data []byte, i int) int {
	if i >= len(data) || data[i] != '"' {
		return -1
	}
	end, _, _ := stringEnd(data, i)
	if end < 0 {
		return -1
	}
	if i = skipWS(data, end+1); i >= len(data) || data[i] != ':' {
		return -1
	}
	return skipWS(data, i+1)
}

func skipLiteral(data []byte, i int, lit string) int {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// skipNumber steps over the number at data[i]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or returns -1.
func skipNumber(data []byte, i int) int {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i >= len(data):
		return -1
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		if i = skipDigits(data, i+1); i < 0 {
			return -1
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		return skipDigits(data, i)
	}
	return i
}

// skipDigits steps over one or more digits at data[i], or returns -1.
func skipDigits(data []byte, i int) int {
	start := i
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// stringStops marks in the high bit of a byte each byte of w that ends a
// run of plain string bytes: a quote, a backslash or a control byte. A
// mark above a true one may be spurious (a borrow), but the lowest mark
// is always true, and it is the only one stringEnd reads.
func stringStops(w uint64) uint64 {
	q := w ^ (lsb * '"')
	b := w ^ (lsb * '\\')
	return ((q-lsb)&^q | (b-lsb)&^b | (w-lsb*0x20)&^w) & msb
}

// stringEnd scans the string whose opening quote is data[i] and returns
// the index of its closing quote, whether the body holds an escape, and
// whether all of its bytes are ASCII (false may also mean unknown). end
// is -1 when the string is unterminated, holds a control byte or a
// malformed escape.
func stringEnd(data []byte, i int) (end int, escaped, ascii bool) {
	var high uint64
	i++
	for {
		for i+8 <= len(data) {
			w := binary.LittleEndian.Uint64(data[i:])
			high |= w
			if m := stringStops(w); m != 0 {
				i += bits.TrailingZeros64(m) >> 3
				break
			}
			i += 8
		}
		for i < len(data) && data[i] != '"' && data[i] != '\\' && data[i] >= 0x20 {
			high |= uint64(data[i])
			i++
		}
		if i >= len(data) {
			return -1, false, false
		}
		switch data[i] {
		case '"':
			return i, escaped, high&msb == 0
		case '\\':
			n := escapeLen(data[i:])
			if n == 0 {
				return -1, false, false
			}
			escaped = true
			i += n
		default:
			return -1, false, false // a control byte
		}
	}
}

// escapeLen returns the length of the escape at the start of e, or 0 when
// it is malformed.
func escapeLen(e []byte) int {
	if len(e) < 2 {
		return 0
	}
	switch e[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(e) < 6 {
			return 0
		}
		for _, c := range e[2:6] {
			if unhex(c) < 0 {
				return 0
			}
		}
		return 6
	}
	return 0
}

func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// unescape decodes a string body whose escapes stringEnd accepted. It
// declines (false) a surrogate escape, which encoding/json pairs up or
// replaces; every other escape decodes as encoding/json decodes it.
func unescape(body []byte) (string, bool) {
	var b strings.Builder
	b.Grow(len(body)) // every escape is longer than what it decodes to
	for {
		k := bytes.IndexByte(body, '\\')
		if k < 0 {
			b.Write(body)
			return b.String(), true
		}
		b.Write(body[:k])
		c := body[k+1]
		switch c {
		case 'u':
			r := rune(unhex(body[k+2])<<12 | unhex(body[k+3])<<8 | unhex(body[k+4])<<4 | unhex(body[k+5]))
			if utf16.IsSurrogate(r) {
				return "", false
			}
			b.WriteRune(r)
			body = body[k+6:]
			continue
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		}
		b.WriteByte(c) // '"', '\\' and '/' stand for themselves
		body = body[k+2:]
	}
}

// canonReader reads the canonical JSON json.Marshal writes for the
// journal's types: no whitespace, struct fields in declared order, empty
// omitempty fields left out. Each method reports false at the first byte
// it does not expect, and the decoder built on it then declines.
type canonReader struct {
	data []byte
	i    int
}

// next consumes c if it is the next byte.
func (r *canonReader) next(c byte) bool {
	if r.i < len(r.data) && r.data[r.i] == c {
		r.i++
		return true
	}
	return false
}

// field consumes the key of the named field and its colon, preceded by a
// comma unless it is the object's first field (*first, which it clears).
func (r *canonReader) field(name string, first *bool) bool {
	j := r.i
	if !*first {
		if j >= len(r.data) || r.data[j] != ',' {
			return false
		}
		j++
	}
	k := j + 1 + len(name)
	if k+2 > len(r.data) || r.data[j] != '"' || string(r.data[j+1:k]) != name || r.data[k] != '"' || r.data[k+1] != ':' {
		return false
	}
	r.i = k + 2
	*first = false
	return true
}

// str decodes a string. It declines invalid UTF-8, which encoding/json
// replaces with U+FFFD, and surrogate escapes.
func (r *canonReader) str() (string, bool) {
	if r.i >= len(r.data) || r.data[r.i] != '"' {
		return "", false
	}
	end, escaped, ascii := stringEnd(r.data, r.i)
	if end < 0 {
		return "", false
	}
	body := r.data[r.i+1 : end]
	r.i = end + 1
	if !ascii && !utf8.Valid(body) {
		return "", false
	}
	if !escaped {
		return string(body), true
	}
	return unescape(body)
}

// uint decodes an unsigned integer that fits a uint64.
func (r *canonReader) uint() (uint64, bool) {
	start := r.i
	var n uint64
	for ; r.i < len(r.data) && '0' <= r.data[r.i] && r.data[r.i] <= '9'; r.i++ {
		d := uint64(r.data[r.i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	digits := r.i - start
	return n, digits == 1 || (digits > 1 && r.data[start] != '0')
}

// strField decodes the named string field into *dst if it comes next.
func (r *canonReader) strField(name string, first *bool, dst *string) bool {
	if !r.field(name, first) {
		return true
	}
	s, ok := r.str()
	*dst = s
	return ok
}

// decodeCanon decodes data with canon, the canonical decoder of T, or
// with json.Unmarshal where canon declines.
func decodeCanon[T any](data []byte, canon func(*canonReader, *T) bool) (T, error) {
	var v T
	r := canonReader{data: data}
	if canon(&r, &v) && r.i == len(data) {
		return v, nil
	}
	var u T
	err := json.Unmarshal(data, &u)
	return u, err
}

// decodeRecordCanon decodes a record as AppendRecord writes it. Payload is
// a copy of the raw value, as json.RawMessage holds it.
func decodeRecordCanon(r *canonReader, rec *Record) bool { return decodeRecordInto(r, rec, true) }

// decodeRecordView is decodeRecordCanon with Payload pointing into the
// input, for a caller that is done with the record before the input
// changes.
func decodeRecordView(r *canonReader, rec *Record) bool { return decodeRecordInto(r, rec, false) }

func decodeRecordInto(r *canonReader, rec *Record, copyPayload bool) bool {
	if !r.next('{') {
		return false
	}
	first := true
	if r.field("seq", &first) {
		n, ok := r.uint()
		if !ok {
			return false
		}
		rec.Seq = n
	}
	var op string
	if !r.strField("op", &first, &op) ||
		!r.strField("corpus", &first, &rec.Corpus) ||
		!r.strField("verifier", &first, &rec.Verifier) ||
		!r.strField("session", &first, &rec.Session) ||
		!r.strField("relation", &first, &rec.Relation) {
		return false
	}
	rec.Op = Op(op)
	if r.field("payload", &first) {
		start := r.i
		end := skipValue(r.data, start, 1)
		if end < 0 {
			return false
		}
		rec.Payload = r.data[start:end]
		if copyPayload {
			rec.Payload = append(json.RawMessage(nil), rec.Payload...)
		}
		r.i = end
	}
	return r.next('}')
}

// DecodeCorpusPayload decodes an OpCorpusCreate payload. It gives what
// json.Unmarshal gives, error texts included, and takes one fast pass
// over the canonical bytes json.Marshal writes for a CorpusPayload.
func DecodeCorpusPayload(data []byte) (CorpusPayload, error) {
	return decodeCanon(data, decodeCorpusCanon)
}

func decodeCorpusCanon(r *canonReader, p *CorpusPayload) bool {
	if !r.next('{') {
		return false
	}
	first := true
	if r.field("relations", &first) {
		if !r.next('[') {
			return false
		}
		p.Relations = []RelationPayload{}
		for !r.next(']') {
			if len(p.Relations) > 0 && !r.next(',') {
				return false
			}
			var rp RelationPayload
			if !decodeRelationCanon(r, &rp) {
				return false
			}
			p.Relations = append(p.Relations, rp)
		}
	}
	return r.next('}')
}

// DecodeRelationPayload decodes an OpRelationPut payload, as
// DecodeCorpusPayload does a corpus's.
func DecodeRelationPayload(data []byte) (RelationPayload, error) {
	return decodeCanon(data, decodeRelationCanon)
}

// decodeRelationCanon decodes one relation. An empty meta object declines:
// json.Unmarshal makes it an empty map, where Marshal leaves it out.
func decodeRelationCanon(r *canonReader, p *RelationPayload) bool {
	if !r.next('{') {
		return false
	}
	first := true
	if !r.strField("name", &first, &p.Name) || !r.strField("csv", &first, &p.CSV) {
		return false
	}
	if r.field("meta", &first) {
		if !r.next('{') {
			return false
		}
		p.Meta = make(map[string]string)
		for {
			k, ok := r.str()
			if !ok || !r.next(':') {
				return false
			}
			v, ok := r.str()
			if !ok {
				return false
			}
			p.Meta[k] = v
			if r.next('}') {
				break
			}
			if !r.next(',') {
				return false
			}
		}
	}
	return r.next('}')
}
