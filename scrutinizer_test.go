package scrutinizer

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	cfg := SmallWorld()
	cfg.NumClaims = 50
	cfg.NumSections = 5
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// startRun fits a verifier over corpus on the training document and starts
// a run of doc with a simulated team of three. A training document from
// Document.Unannotated gives the §6.2 cold start.
func startRun(t testing.TB, corpus *Corpus, training, doc *Document, opts Options) (*Run, *Team) {
	t.Helper()
	v, err := NewVerifier(corpus, training, opts)
	if err != nil {
		t.Fatal(err)
	}
	run, err := v.StartRun(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	team, err := v.NewTeam(3)
	if err != nil {
		t.Fatal(err)
	}
	return run, team
}

func TestNewValidation(t *testing.T) {
	w := testWorld(t)
	if _, err := NewVerifier(nil, w.Document, Options{}); err == nil {
		t.Error("nil corpus accepted")
	}
	if _, err := NewVerifier(w.Corpus, nil, Options{}); err == nil {
		t.Error("nil document accepted")
	}
	if _, err := NewVerifier(w.Corpus, &Document{Title: "empty"}, Options{}); err == nil {
		t.Error("empty document accepted")
	}
}

func TestEndToEndFacade(t *testing.T) {
	w := testWorld(t)
	run, team := startRun(t, w.Corpus, w.Document.Unannotated(), w.Document, Options{Seed: 11})
	res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 15, SectionReadCost: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(w.Document.Claims) {
		t.Fatalf("verified %d of %d", len(res.Outcomes), len(w.Document.Claims))
	}
	if res.Accuracy() < 0.9 {
		t.Errorf("accuracy = %g", res.Accuracy())
	}
	rep := res.Report()
	if !strings.Contains(rep, "Verification report") || !strings.Contains(rep, "verdict:") {
		t.Errorf("report malformed:\n%s", rep[:min(400, len(rep))])
	}
}

func TestSingleClaimFacade(t *testing.T) {
	w := testWorld(t)
	run, team := startRun(t, w.Corpus, w.Document, w.Document, Options{Seed: 3})
	out, err := run.VerifyClaim(context.Background(), w.Document.Claims[0], team)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict == VerdictSkipped {
		t.Error("trained facade skipped a claim")
	}
	if run.Engine() == nil {
		t.Error("Engine accessor nil")
	}
}

func TestBuildCorpusManually(t *testing.T) {
	c := NewCorpus()
	r, err := NewRelation("GED", "Index", []string{"2016", "2017"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddRow("PGElecDemand", []float64{21546, 22209}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(r); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get("GED", "PGElecDemand", "2017"); err != nil || v != 22209 {
		t.Errorf("corpus get = %g, %v", v, err)
	}
	if DefaultCostModel().Validate() != nil {
		t.Error("default cost model invalid")
	}
	if PaperWorld().NumClaims != 1539 {
		t.Error("paper world should have 1539 claims")
	}
}

func TestDocumentJSONAndCSVFacade(t *testing.T) {
	w := testWorld(t)
	var buf bytes.Buffer
	if err := w.Document.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadDocumentJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Claims) != len(w.Document.Claims) {
		t.Fatalf("claims = %d, want %d", len(doc.Claims), len(w.Document.Claims))
	}
	// A verifier trained on the re-read document verifies it.
	run, team := startRun(t, w.Corpus, doc, doc, Options{Seed: 30})
	out, err := run.VerifyClaim(context.Background(), doc.Claims[0], team)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict == VerdictSkipped {
		t.Error("re-read document claim skipped")
	}

	// CSV relation round trip through the facade.
	rel, err := w.Corpus.Relation(w.Corpus.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := rel.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	rel2, err := ReadRelationCSV(rel.Name(), &csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.NumRows() != rel.NumRows() {
		t.Errorf("CSV round trip rows = %d, want %d", rel2.NumRows(), rel.NumRows())
	}
}

// TestSessionFacade walks the interactive API end to end at the facade
// level: start a session on a cold verifier, answer a few screens,
// snapshot, replay the snapshot on a freshly built verifier, and check the
// restored session is in the same place.
func TestSessionFacade(t *testing.T) {
	w := testWorld(t)
	newVerifier := func() *Verifier {
		v, err := NewVerifier(w.Corpus, w.Document.Unannotated(), Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	opts := SessionOptions{Verify: VerifyOptions{BatchSize: 8}, Checkers: 2}

	m := NewSessionManager(0, 0)
	sess, err := newVerifier().StartSession(context.Background(), m, w.Document, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Get(sess.ID()); !ok || got != sess {
		t.Fatal("session not registered")
	}
	qs := sess.Questions()
	if len(qs) != 8 {
		t.Fatalf("first batch queued %d questions, want 8", len(qs))
	}
	// Walk one claim through its screens with suggested answers.
	for next := &qs[0]; next != nil; {
		var err error
		next, err = sess.Answer(context.Background(), SessionAnswer{
			QuestionID: next.ID, ClaimID: next.ClaimID, Value: "suggestion", Seconds: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	p := sess.Progress()
	if p.Answered == 0 || p.Done {
		t.Fatalf("progress = %+v", p)
	}

	snap := sess.Snapshot()
	restored, err := newVerifier().RestoreSession(context.Background(), NewSessionManager(0, 0), w.Document, opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	rp := restored.Progress()
	if restored.ID() != sess.ID() || rp.Answered != p.Answered ||
		rp.CrowdSeconds != p.CrowdSeconds || rp.PendingQuestions != p.PendingQuestions {
		t.Fatalf("restored progress %+v, want %+v", rp, p)
	}
	rep := restored.Report()
	if rep.Done || len(rep.Outcomes) != 0 {
		t.Fatalf("mid-batch report = %+v", rep)
	}
}
