package store

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/repro/scrutinizer/internal/worldgen"
)

// agreeWithEncodingJSON checks the scanner and the three decoders against
// encoding/json on one input: validJSON gives json.Valid's verdict, and
// each decoder agrees with json.Unmarshal (agreeDecoder).
func agreeWithEncodingJSON(t *testing.T, data []byte) {
	t.Helper()
	if got, want := validJSON(data), json.Valid(data); got != want {
		t.Fatalf("validJSON(%q) = %v, json.Valid says %v", data, got, want)
	}
	agreeDecoder(t, "record", data, decodeRecordCanon)
	agreeDecoder(t, "corpus", data, decodeCorpusCanon)
	agreeDecoder(t, "relation", data, decodeRelationCanon)
}

// agreeDecoder checks a canonical decoder against json.Unmarshal on data:
// where it accepts, json.Unmarshal accepts too and gives a deep-equal
// value; and with its fallback (decodeCanon) it gives json.Unmarshal's
// value or error text.
func agreeDecoder[T any](t *testing.T, what string, data []byte, canon func(*canonReader, *T) bool) {
	t.Helper()
	var want T
	werr := json.Unmarshal(data, &want)
	var got T
	if canonAccepts(data, canon, &got) && (werr != nil || !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s %q: canonical decoder gives %+v, json.Unmarshal %+v (%v)", what, data, got, want, werr)
	}
	got, err := decodeCanon(data, canon)
	if fmt.Sprint(err) != fmt.Sprint(werr) || (err == nil && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s %q: %+v (%v), json.Unmarshal %+v (%v)", what, data, got, err, want, werr)
	}
}

// canonAccepts reports whether canon decodes all of data, into *v.
func canonAccepts[T any](data []byte, canon func(*canonReader, *T) bool, v *T) bool {
	r := canonReader{data: data}
	return canon(&r, v) && r.i == len(data)
}

// jsonSeeds are inputs on the edges of the grammar and of the canonical
// decoders.
func jsonSeeds(t testing.TB) []string {
	t.Helper()
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rel := RelationPayload{Name: "GED <2017>", CSV: "Index,2017\nA,1\n\"B\r\nC\",\n", Meta: map[string]string{"unit": "Mtoe", "note": "a b\\\"c\t"}}
	frame, err := AppendRecord(nil, &Record{Seq: 7, Op: OpRelationPut, Corpus: "c1", Verifier: "v2", Session: "s3", Relation: "GED", Payload: []byte(marshal(rel))})
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		"", " ", "{}", "[]", "null", "true", "false", "0", "-0", "01", "-01", "1.", ".5", "+1", "1.5e", "1e+5", "1E-0",
		"0.0e0", "1ee", "-", "1.5e+", "123456789012345678901234567890", "[1,]", "{,}", `{"a"}`, `{"a":}`, `{"a":1,}`,
		`["a" "b"]`, `[1 2]`, "{} \n\t\r", " \t[ ] ", "[\x00]", "\"a\x01b\"", "\"\x7f\"", "\"\xff\"", "\"\xed\xa0\x80\"",
		`"< é"`, `"😀"`, `"\ud800"`, `"\udc00x"`, `{"name":"\ud83d\ude00"}`, "\"abcdefgh\x01ijklmnop\"", "{\"name\":\"abcdefgh\xffijklmnop\"}", `"\u12"`, `"\x"`, `"\/\b\f\n\r\t"`, `"abc`, `"abc\`,
		"trueish", "nul", "[true,false,null]",
		marshal(CorpusPayload{}), marshal(CorpusPayload{Relations: []RelationPayload{rel, {Name: "x", CSV: "k\n"}}}),
		`{"relations":[]}`, `{"relations":null}`, `{"relations":[{}]}`, `{"relations":[{"name":"a","csv":"b","meta":{}}]}`,
		`{"relations":[{"csv":"b","name":"a"}]}`, `{"Relations":[]}`, `{"relations":[{"name":"a","meta":{"k":"1","k":"2"}}]}`,
		`{"relations":[{"name":"a","meta":{"k":null}}]}`, `{"relations":[{"name":5}]}`, `{"relations":[]} `,
		marshal(rel), `{"name":"a","csv":"b","extra":1}`, `{"name":"\ud800"}`, `{"name":"a\u0000b"}`,
		string(frame[frameHeaderLen:]),
		`{"seq":1,"op":"corpus.create","payload":{"relations":[]}}`, `{"op":"x","payload":null}`, `{"op":"x","payload": 1}`,
		`{"op":"x","payload":1 }`, `{"op":"x","payload":"s"}`, `{"op":"x","payload":[1,{"a":[]}]}`, `{"seq":0,"op":""}`,
		`{"seq":18446744073709551615,"op":"x"}`, `{"seq":18446744073709551616,"op":"x"}`, `{"seq":-1,"op":"x"}`,
		`{"seq":1.0,"op":"x"}`, `{"seq":01,"op":"x"}`, `{"seq":null,"op":"x"}`, `{"op":"x","seq":1}`, `{"OP":"x"}`,
		`{"op":"x","corpus":"c","corpus":"d"}`, `{"op":"x"} `, `{"op":"x","payload":{}}`, "{\"op\":\"\xff\"}",
	}
}

func TestJSONScannerAgreesWithEncodingJSON(t *testing.T) {
	for _, s := range jsonSeeds(t) {
		agreeWithEncodingJSON(t, []byte(s))
	}
}

// TestJSONNestingLimit: 10000 nested arrays are JSON and 10001 are not, at
// the top level and inside a record's payload, where the record's own
// object counts.
func TestJSONNestingLimit(t *testing.T) {
	nested := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, n := range []int{9999, 10000, 10001} {
		if got, want := validJSON([]byte(nested(n))), n <= maxNestingDepth; got != want {
			t.Fatalf("depth %d: validJSON %v, want %v", n, got, want)
		}
		agreeWithEncodingJSON(t, []byte(nested(n)))
		rec := []byte(`{"op":"x","payload":` + nested(n-1) + `}`)
		var got Record
		if ok := canonAccepts(rec, decodeRecordCanon, &got); ok != (n <= maxNestingDepth) {
			t.Fatalf("record nesting to depth %d: canonical decoder accepted %v", n, ok)
		}
		agreeWithEncodingJSON(t, rec)
	}
}

// TestCanonicalBytesTakeTheFastPath: what AppendRecord and json.Marshal
// write for the journal's types decodes without encoding/json, so the fast
// path is the one recovery takes.
func TestCanonicalBytesTakeTheFastPath(t *testing.T) {
	rel := RelationPayload{Name: "GED", CSV: "Index,2017\nA<&>,1\n\"B,é\",\n", Meta: map[string]string{"unit": "Mtoe "}}
	relJSON, err := json.Marshal(rel)
	if err != nil {
		t.Fatal(err)
	}
	corpusJSON, err := json.Marshal(CorpusPayload{Relations: []RelationPayload{rel, {Name: "bare", CSV: "k\n"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*Record{
		{Op: OpCorpusDelete, Corpus: "c1"},
		{Seq: 1, Op: OpCorpusCreate, Corpus: "c1", Payload: corpusJSON},
		{Seq: 2, Op: OpRelationPut, Corpus: "c1", Relation: "GED", Payload: relJSON},
		{Seq: 3, Op: OpSessionAnswer, Verifier: "v1", Session: "s1", Payload: []byte(`{"claim_id":3,"value":"x"}`)},
	} {
		frame, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		var got Record
		if !canonAccepts(frame[frameHeaderLen:], decodeRecordCanon, &got) || !reflect.DeepEqual(&got, rec) {
			t.Fatalf("record %+v: canonical decode %+v", rec, got)
		}
	}
	var cp CorpusPayload
	if !canonAccepts(corpusJSON, decodeCorpusCanon, &cp) {
		t.Fatalf("%s: the canonical corpus decoder declines it", corpusJSON)
	}
	var rp RelationPayload
	if !canonAccepts(relJSON, decodeRelationCanon, &rp) || !reflect.DeepEqual(rp, rel) {
		t.Fatalf("%s: canonical relation decode %+v", relJSON, rp)
	}
}

// FuzzJSONScanner holds the journal's JSON scanner to encoding/json on any
// input: the validating skip gives json.Valid's verdict, a canonical
// decoder that accepts gives json.Unmarshal's value, and each decoder with
// its fallback gives json.Unmarshal's value or error text.
func FuzzJSONScanner(f *testing.F) {
	for _, s := range jsonSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(agreeWithEncodingJSON)
}

// paperShapeDump is the OpCorpusCreate payload of a corpus of paper-shape
// relations (24 rows of 87 cells each, with metadata), as AddCorpus
// journals it.
func paperShapeDump(tb testing.TB) []byte {
	tb.Helper()
	cfg := worldgen.SmallScale()
	cfg.YearStart, cfg.YearEnd = 1971, 2050
	cfg.KeysPerRelation = 24
	w, err := worldgen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var p CorpusPayload
	for _, name := range w.Corpus.Names() {
		rel, err := w.Corpus.Relation(name)
		if err != nil {
			tb.Fatal(err)
		}
		var csv strings.Builder
		if err := rel.WriteCSV(&csv); err != nil {
			tb.Fatal(err)
		}
		p.Relations = append(p.Relations, RelationPayload{Name: name, CSV: csv.String(), Meta: rel.Metadata()})
	}
	b, err := json.Marshal(p)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// BenchmarkDecodeCorpusPayload decodes a paper-shape corpus dump: the JSON
// half of rebuilding a corpus at recovery.
func BenchmarkDecodeCorpusPayload(b *testing.B) {
	dump := paperShapeDump(b)
	b.SetBytes(int64(len(dump)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCorpusPayload(dump); err != nil {
			b.Fatal(err)
		}
	}
}
