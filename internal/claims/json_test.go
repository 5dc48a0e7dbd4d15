package claims

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleDocument() *Document {
	return &Document{
		Title:    "Round trip",
		Sections: 2,
		Claims: []*Claim{
			{
				ID: 1, Text: "demand grew by 3%", Sentence: "context: demand grew by 3%",
				Section: 0, Kind: Explicit, Param: 0.03, HasParam: true, Cmp: OpEq,
				Correct: true,
				Truth: &GroundTruth{
					Relations: []string{"GED"}, Keys: []string{"K"},
					Attrs: []string{"2017", "2016"}, Formula: "a.A1 / b.A2 - 1",
					Value: 0.031,
				},
			},
			{
				ID: 2, Text: "expanded aggressively", Section: 1,
				Kind: General, Param: 1.0, HasParam: true, Cmp: OpGt,
			},
			{ID: 3, Text: "no parameter claim", Section: 1, Kind: General},
		},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := sampleDocument()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != d.Title || got.Sections != d.Sections || len(got.Claims) != len(d.Claims) {
		t.Fatalf("document shape changed: %+v", got)
	}
	for i, c := range d.Claims {
		g := got.Claims[i]
		if g.ID != c.ID || g.Text != c.Text || g.Sentence != c.Sentence ||
			g.Section != c.Section || g.Kind != c.Kind || g.Correct != c.Correct ||
			g.HasParam != c.HasParam || g.Param != c.Param || (c.HasParam && g.Cmp != c.Cmp) {
			t.Errorf("claim %d changed: %+v vs %+v", c.ID, g, c)
		}
		if (g.Truth == nil) != (c.Truth == nil) {
			t.Fatalf("claim %d truth presence changed", c.ID)
		}
		if c.Truth != nil {
			if g.Truth.Formula != c.Truth.Formula || g.Truth.Value != c.Truth.Value ||
				len(g.Truth.Relations) != len(c.Truth.Relations) {
				t.Errorf("claim %d truth changed", c.ID)
			}
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		"",
		"{not json",
		`{"title":"x","sections":1,"claims":[{"id":1,"kind":"weird"}]}`,
		`{"title":"x","sections":1,"claims":[{"id":1,"param":1,"cmp":"~"}]}`,
		`{"title":"x","sections":1,"claims":[{"id":1},{"id":1}]}`, // dup IDs
		`{"title":"x","sections":1,"claims":[{"id":1,"section":7}]}`,
		`{"unknown_field":true}`,
	}
	for _, src := range cases {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("ReadJSON(%q) succeeded", src)
		}
	}
}

func TestWriteJSONRejectsNilClaims(t *testing.T) {
	d := &Document{Title: "bad", Sections: 1, Claims: []*Claim{nil}}
	if err := d.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Error("nil claim accepted")
	}
}

func TestJSONOmitsAbsentParam(t *testing.T) {
	d := &Document{Title: "t", Sections: 1, Claims: []*Claim{{ID: 1, Text: "x", Kind: General}}}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"param"`) || strings.Contains(buf.String(), `"cmp"`) {
		t.Errorf("param fields should be omitted:\n%s", buf.String())
	}
}

// FuzzReadDocumentJSON holds ReadJSON, which decodes uploaded documents
// and, at recovery, the journaled training and session documents, to two
// properties on any input: it does not panic, and every document it
// accepts round-trips through WriteJSON to an equal document.
func FuzzReadDocumentJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleDocument().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		"", "{not json", "null", "{}", `{"title":"x","sections":1,"claims":[]}`,
		`{"title":"x","sections":1,"claims":[{"id":1,"kind":"weird"}]}`,
		`{"title":"x","sections":1,"claims":[{"id":1,"param":1,"cmp":"~"}]}`,
		`{"title":"x","sections":1,"claims":[{"id":1},{"id":1}]}`,
		`{"title":"x","sections":2,"claims":[{"id":1,"section":1,"param":-0,"truth":{}},null]}`,
		`{"title":"\ud800 ","sections":1,"claims":[{"id":2,"text":"\xff","kind":"general","param":1e308,"cmp":">","truth":{"Relations":[],"Keys":null,"Value":1.5}}]} trailing`,
		`{"unknown_field":true}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := d.WriteJSON(&out); err != nil {
			t.Fatalf("writing an accepted document: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-reading the WriteJSON output: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(d, back) {
			t.Fatalf("round trip changed the document:\n%s", out.Bytes())
		}
	})
}
