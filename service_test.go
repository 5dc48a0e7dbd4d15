package scrutinizer

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/repro/scrutinizer/internal/core"
)

// splitWorldDoc splits a world's document into two documents over the same
// corpus (both keep the full section range, so Validate passes).
func splitWorldDoc(w *World) (*Document, *Document) {
	half := len(w.Document.Claims) / 2
	a := &Document{Title: w.Document.Title + " (first half)", Sections: w.Document.Sections,
		Claims: w.Document.Claims[:half]}
	b := &Document{Title: w.Document.Title + " (second half)", Sections: w.Document.Sections,
		Claims: w.Document.Claims[half:]}
	return a, b
}

// mustEqualResults asserts two results are bit-identical: same crowd
// seconds, batches and per-claim verdicts/values.
func mustEqualResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Seconds != b.Seconds || a.Batches != b.Batches {
		t.Fatalf("%s: seconds/batches %v/%d vs %v/%d", label, a.Seconds, a.Batches, b.Seconds, b.Batches)
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("%s: outcome counts %d vs %d", label, len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		x, y := a.Outcomes[i], b.Outcomes[i]
		if x.ClaimID != y.ClaimID || x.Verdict != y.Verdict || x.Seconds != y.Seconds ||
			x.Value != y.Value || x.Suggestion != y.Suggestion || x.HasSuggestion != y.HasSuggestion {
			t.Fatalf("%s: outcome %d diverged: %+v vs %+v", label, i, x, y)
		}
	}
}

// outcomeDigest hashes what a verdict is made of — claim ID, verdict,
// query value and suggested correction, bit for bit — in outcome order.
func outcomeDigest(outs []*Outcome) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, o := range outs {
		put(uint64(o.ClaimID))
		put(uint64(o.Verdict))
		put(math.Float64bits(o.Value))
		put(math.Float64bits(o.Suggestion))
	}
	return h.Sum64()
}

// behaviourLock holds batch-run results measured at the parent commit of
// the change that deleted the single-use System facade, with System on
// testWorld, batch 10 and NewTeam(3): cold rows ran New alone, trained
// rows ran New then Train(doc.Claims). The Verifier forms must reproduce
// them exactly.
var behaviourLock = []struct {
	trained  bool
	seed     int64
	seconds  uint64 // math.Float64bits(Result.Seconds)
	batches  int
	accuracy uint64 // math.Float64bits(Result.Accuracy())
	digest   uint64 // outcomeDigest(Result.Outcomes)
}{
	{false, 1, 0x40d301d998e9eec8, 5, 0x3ff0000000000000, 0x5da711b35dcbc40d}, // 19463.39995811766 s
	{false, 5, 0x40d438164a60f5d7, 5, 0x3ff0000000000000, 0x23379544e750c9b5}, // 20704.348289718702 s
	{false, 11, 0x40d3a9f90cfbb6d3, 5, 0x3ff0000000000000, 0x485637793db78bd}, // 20135.891417435207 s
	{true, 1, 0x40cdd1e8e0155600, 5, 0x3ff0000000000000, 0x4c6fb08e6a426885},  // 15267.819338480942 s
	{true, 5, 0x40d0704abae8afda, 5, 0x3ff0000000000000, 0x155255071351a16d},  // 16833.167658015947 s
	{true, 11, 0x40ccab4c7d83dde1, 5, 0x3ff0000000000000, 0xfe7f4762c32bcb6d}, // 14678.597580417003 s
}

// TestVerifierBehaviourLock: a verifier fitted on the unannotated document
// (cold start) or on the annotated one (trained), run over the document,
// reproduces the locked results bit for bit.
func TestVerifierBehaviourLock(t *testing.T) {
	w := testWorld(t)
	for _, want := range behaviourLock {
		training := w.Document.Unannotated()
		if want.trained {
			training = w.Document
		}
		run, team := startRun(t, w.Corpus, training, w.Document, Options{Seed: want.seed})
		res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 10})
		if err != nil {
			t.Fatal(err)
		}
		got := [4]uint64{math.Float64bits(res.Seconds), uint64(res.Batches),
			math.Float64bits(res.Accuracy()), outcomeDigest(res.Outcomes)}
		if got != [4]uint64{want.seconds, uint64(want.batches), want.accuracy, want.digest} {
			t.Errorf("trained=%v seed %d: seconds %v batches %d accuracy %v digest %#x; want %v %d %v %#x",
				want.trained, want.seed, res.Seconds, res.Batches, res.Accuracy(), got[3],
				math.Float64frombits(want.seconds), want.batches, math.Float64frombits(want.accuracy), want.digest)
		}
	}
}

// TestVerifierServesManyDocumentsWarm is the amortization acceptance
// criterion: one trained verifier serves two different documents without
// refitting the feature pipeline, and each run's verdicts are
// bit-identical to a dedicated fresh verifier trained on the same data.
func TestVerifierServesManyDocumentsWarm(t *testing.T) {
	w := testWorld(t)
	docA, docB := splitWorldDoc(w)
	opts := Options{Seed: 9}
	vopts := VerifyOptions{BatchSize: 8}

	shared, err := NewVerifier(w.Corpus, w.Document, opts)
	if err != nil {
		t.Fatal(err)
	}
	genBefore := shared.Generation()
	dimBefore := shared.FeatureDim()

	runDoc := func(v *Verifier, doc *Document) *Result {
		t.Helper()
		run, err := v.StartRun(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		team, err := v.NewTeam(3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run.Verify(context.Background(), team, vopts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	gotA := runDoc(shared, docA)
	gotB := runDoc(shared, docB)

	// Serving two documents must not have refit features or retrained the
	// verifier itself: run-level retraining stays on the runs' engines.
	if shared.Generation() != genBefore || shared.FeatureDim() != dimBefore {
		t.Fatalf("runs mutated the verifier: gen %d->%d dim %d->%d",
			genBefore, shared.Generation(), dimBefore, shared.FeatureDim())
	}
	if shared.Runs() != 2 {
		t.Fatalf("Runs() = %d, want 2", shared.Runs())
	}

	// Per-document reference: a dedicated verifier built from the same
	// training data gives bit-identical verdicts.
	wantA := runDoc(mustVerifier(t, w, opts), docA)
	wantB := runDoc(mustVerifier(t, w, opts), docB)
	mustEqualResults(t, "docA shared vs dedicated", wantA, gotA)
	mustEqualResults(t, "docB shared vs dedicated", wantB, gotB)

	// And the runs were warm: the shared verifier's trained state seeded
	// every run, visible as a non-zero starting generation.
	if genBefore == 0 {
		t.Fatal("verifier should be trained (generation > 0)")
	}
}

func mustVerifier(t *testing.T, w *World, opts Options) *Verifier {
	t.Helper()
	v, err := NewVerifier(w.Corpus, w.Document, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestVerifierConcurrentRuns: concurrent runs on one verifier do not race
// (the -race build is the assertion) and each matches the sequential
// result bit for bit.
func TestVerifierConcurrentRuns(t *testing.T) {
	w := testWorld(t)
	docA, docB := splitWorldDoc(w)
	opts := Options{Seed: 13}
	vopts := VerifyOptions{BatchSize: 8, Parallelism: 2}

	v := mustVerifier(t, w, opts)
	run := func(doc *Document) (*Result, error) {
		r, err := v.StartRun(context.Background(), doc)
		if err != nil {
			return nil, err
		}
		team, err := v.NewTeam(3)
		if err != nil {
			return nil, err
		}
		return r.Verify(context.Background(), team, vopts)
	}

	seqA, err := run(docA)
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := run(docB)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 3
	docs := []*Document{docA, docB}
	results := make([][]*Result, len(docs))
	errs := make([]error, len(docs)*workers)
	var wg sync.WaitGroup
	for d := range docs {
		results[d] = make([]*Result, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(d, i int) {
				defer wg.Done()
				results[d][i], errs[d*workers+i] = run(docs[d])
			}(d, i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers; i++ {
		mustEqualResults(t, "concurrent docA", seqA, results[0][i])
		mustEqualResults(t, "concurrent docB", seqB, results[1][i])
	}
}

// TestVerifierSessionPrivateEngines: sessions started from one verifier
// own private engines — answering in one does not disturb another, and
// the verifier stays reusable throughout.
func TestVerifierSessionPrivateEngines(t *testing.T) {
	w := testWorld(t)
	v := mustVerifier(t, w, Options{Seed: 3})
	m := NewSessionManager(0, 0)
	opts := SessionOptions{Verify: VerifyOptions{BatchSize: 8}, Checkers: 2}

	s1, err := v.StartSession(context.Background(), m, w.Document, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := v.StartSession(context.Background(), m, w.Document, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Owner() != v.ID() || s2.Owner() != v.ID() {
		t.Fatalf("session owners %q/%q, want verifier id %q", s1.Owner(), s2.Owner(), v.ID())
	}
	q1 := s1.Questions()
	if len(q1) == 0 {
		t.Fatal("no questions queued")
	}
	// Drive one claim to completion in s1; s2 must be untouched.
	before2 := s2.Progress()
	for next := &q1[0]; next != nil; {
		var err error
		next, err = s1.Answer(context.Background(), SessionAnswer{ClaimID: next.ClaimID, Value: "suggestion", Seconds: 2})
		if err != nil {
			t.Fatal(err)
		}
	}
	if p := s2.Progress(); p.Answered != before2.Answered || p.PendingQuestions != before2.PendingQuestions {
		t.Fatalf("answering s1 changed s2: %+v vs %+v", p, before2)
	}
	if s1.Progress().Answered == 0 {
		t.Fatal("s1 consumed no answers")
	}
}

// TestVerifierRetrainIsolation: retraining the verifier changes what
// future runs start from but never perturbs runs already started — not a
// parked run, and not runs verifying on other goroutines while Retrain
// trains the verifier's models in place (the -race run is the assertion
// that copy-on-write keeps the two apart).
func TestVerifierRetrainIsolation(t *testing.T) {
	w := testWorld(t)
	docA, _ := splitWorldDoc(w)
	v := mustVerifier(t, w, Options{Seed: 21})
	vopts := VerifyOptions{BatchSize: 8}

	// Reference result from the pre-retrain state.
	preRun, err := v.StartRun(context.Background(), docA)
	if err != nil {
		t.Fatal(err)
	}
	team, err := v.NewTeam(3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := preRun.Verify(context.Background(), team, vopts)
	if err != nil {
		t.Fatal(err)
	}

	// Start (but do not yet execute) runs, then retrain the verifier: warm
	// on its whole training set again, which writes every model buffer the
	// runs share, then cold on half of it. Three runs verify meanwhile.
	const live = 3
	runs := make([]*Run, live+1)
	for i := range runs {
		if runs[i], err = v.StartRun(context.Background(), docA); err != nil {
			t.Fatal(err)
		}
	}
	parked := runs[live]
	results := make([]*Result, live)
	errs := make([]error, live)
	var wg sync.WaitGroup
	for i := 0; i < live; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			team, err := v.NewTeam(3)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = runs[i].Verify(context.Background(), team, vopts)
		}(i)
	}
	genBefore := v.Generation()
	if err := v.Retrain(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	if !v.base.Model(core.PropRelation).WarmStarted() {
		t.Fatal("retraining on the unchanged training set should warm start")
	}
	if err := v.Retrain(w.Document.Claims[:len(w.Document.Claims)/2]); err != nil {
		t.Fatal(err)
	}
	if v.Generation() != genBefore+2 {
		t.Fatalf("generation %d after two retrains from %d", v.Generation(), genBefore)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		mustEqualResults(t, "run verifying across retrain", want, results[i])
	}

	// The parked run still verifies from the state it was started under.
	team2, err := v.NewTeam(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parked.Verify(context.Background(), team2, vopts)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "parked run across retrain", want, got)
}

// TestStartRunCopiesNoWeights: starting a run clones the verifier's models
// copy-on-write, so it allocates a few kilobytes of engine bookkeeping,
// not a copy of the four models' weights and AdaGrad accumulators. The
// runs are deliberately left open: nothing is recycled.
func TestStartRunCopiesNoWeights(t *testing.T) {
	w := testWorld(t)
	v := mustVerifier(t, w, Options{Seed: 5})
	labels := 0
	for _, k := range core.PropertyKinds() {
		labels += v.base.Model(k).NumLabels()
	}
	// A float64 weight and accumulator per (feature, label) per model.
	weightBytes := uint64(16 * labels * v.FeatureDim())

	const n = 50
	runs := make([]*Run, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		r, err := v.StartRun(context.Background(), w.Document)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("StartRun allocates %d B; the models' weights are %d B", perRun, weightBytes)
	if perRun > weightBytes/20 {
		t.Fatalf("StartRun allocates %d B per run, want well below the models' %d B of weights", perRun, weightBytes)
	}
}

// TestServiceRegistry covers the corpus/verifier registry: registration,
// lookup, listing, cascade removal and ID validation.
func TestServiceRegistry(t *testing.T) {
	w := testWorld(t)
	svc := NewService()

	if _, err := svc.AddCorpus("", nil); err == nil {
		t.Error("nil corpus accepted")
	}
	if _, err := svc.AddCorpus("bad id!", w.Corpus); err == nil {
		t.Error("invalid id accepted")
	}
	id, err := svc.AddCorpus("iea", w.Corpus)
	if err != nil || id != "iea" {
		t.Fatalf("AddCorpus = %q, %v", id, err)
	}
	if _, err := svc.AddCorpus("iea", w.Corpus); err == nil {
		t.Error("duplicate corpus id accepted")
	}
	auto, err := svc.AddCorpus("", w.Corpus)
	if err != nil || !strings.HasPrefix(auto, "c") {
		t.Fatalf("auto id = %q, %v", auto, err)
	}

	if _, err := svc.CreateVerifier("nope", w.Document, Options{}); err == nil {
		t.Error("verifier over unknown corpus accepted")
	}
	v, err := svc.CreateVerifier("iea", w.Document, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID() == "" || v.CorpusID() != "iea" {
		t.Fatalf("verifier ids: %q over %q", v.ID(), v.CorpusID())
	}
	if got, ok := svc.Verifier(v.ID()); !ok || got != v {
		t.Fatal("verifier not registered")
	}
	if v.TrainedOn() == 0 || v.Generation() == 0 {
		t.Fatalf("service verifier should be pre-trained: trained=%d gen=%d", v.TrainedOn(), v.Generation())
	}

	// The verifier shares the corpus's query cache.
	qc, ok := svc.CorpusQueryCache("iea")
	if !ok {
		t.Fatal("corpus cache missing")
	}
	run, err := v.StartRun(context.Background(), w.Document)
	if err != nil {
		t.Fatal(err)
	}
	team, err := v.NewTeam(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 10}); err != nil {
		t.Fatal(err)
	}
	if st := qc.Stats(); st.Entries == 0 {
		t.Errorf("run did not populate the corpus query cache: %+v", st)
	}

	infos := svc.Corpora()
	if len(infos) != 2 || infos[0].ID != "c1" || infos[1].ID != "iea" || infos[1].Verifiers != 1 {
		t.Fatalf("Corpora() = %+v", infos)
	}
	vinfos := svc.Verifiers()
	if len(vinfos) != 1 || vinfos[0].ID != v.ID() || vinfos[0].Runs != 1 {
		t.Fatalf("Verifiers() = %+v", vinfos)
	}
	if st := svc.Stats(); st.Corpora != 2 || st.Verifiers != 1 || st.Runs != 1 {
		t.Fatalf("Stats() = %+v", st)
	}

	// Removing a corpus cascades to its verifiers.
	if ok, err := svc.RemoveCorpus("iea"); err != nil || !ok {
		t.Fatalf("RemoveCorpus failed: ok=%v err=%v", ok, err)
	}
	if _, ok := svc.Verifier(v.ID()); ok {
		t.Fatal("verifier survived corpus removal")
	}
	if ok, err := svc.RemoveCorpus("iea"); err != nil || ok {
		t.Fatalf("second RemoveCorpus: ok=%v err=%v", ok, err)
	}
	if ok, err := svc.RemoveVerifier(v.ID()); err != nil || ok {
		t.Fatalf("RemoveVerifier on cascaded verifier: ok=%v err=%v", ok, err)
	}
}

// TestOrderRandomExported: the facade exposes the random-ordering ablation
// baseline the daemon already parses.
func TestOrderRandomExported(t *testing.T) {
	if OrderRandom == OrderILP || OrderRandom == OrderSequential || OrderRandom == OrderGreedy {
		t.Fatal("OrderRandom collides with another ordering")
	}
	w := testWorld(t)
	v := mustVerifier(t, w, Options{Seed: 1})
	run, err := v.StartRun(context.Background(), w.Document)
	if err != nil {
		t.Fatal(err)
	}
	team, err := v.NewTeam(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 10, Ordering: OrderRandom})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(w.Document.Claims) {
		t.Fatalf("random ordering verified %d of %d claims", len(res.Outcomes), len(w.Document.Claims))
	}
}

// TestVerifierCoverage: coverage is full on the training document and
// degrades on alien text.
func TestVerifierCoverage(t *testing.T) {
	w := testWorld(t)
	v := mustVerifier(t, w, Options{Seed: 1})
	cov := v.Coverage(w.Document)
	if cov.TFIDFRatio() != 1 {
		t.Fatalf("training doc TF-IDF coverage = %g, want 1", cov.TFIDFRatio())
	}
	alien := &Document{Title: "alien", Sections: 1, Claims: []*Claim{{
		ID: 1, Text: "zyx wvu reactors quadrupled", Sentence: "zyx wvu reactors quadrupled overnight", Kind: KindGeneral,
	}}}
	acov := v.Coverage(alien)
	if acov.TFIDFRatio() >= cov.TFIDFRatio() {
		t.Fatalf("alien coverage %g not below training coverage %g", acov.TFIDFRatio(), cov.TFIDFRatio())
	}
}

// TestRunCloseIdempotent: runs started and closed one after another are
// bit-identical — every run retrains its own engine at each batch barrier
// and none of that reaches the verifier — and Close is idempotent and
// nil-safe.
func TestRunCloseIdempotent(t *testing.T) {
	w := testWorld(t)
	vopts := VerifyOptions{BatchSize: 10}
	v := mustVerifier(t, w, Options{Seed: 5})

	runOnce := func() *Result {
		t.Helper()
		run, err := v.StartRun(context.Background(), w.Document)
		if err != nil {
			t.Fatal(err)
		}
		defer run.Close()
		team, err := v.NewTeam(3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run.Verify(context.Background(), team, vopts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := runOnce()
	for i := 0; i < 3; i++ {
		mustEqualResults(t, "repeated run", first, runOnce())
	}

	// Close twice (and on a nil run) is a no-op.
	run, err := v.StartRun(context.Background(), w.Document)
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	run.Close()
	if run.Engine() != nil {
		t.Fatal("Close must drop the run's engine")
	}
	var nilRun *Run
	nilRun.Close()
}

// TestRunCloseConcurrent: concurrent StartRun / Verify / Close cycles
// against one verifier are safe (the -race run is the real assertion) and
// deterministic.
func TestRunCloseConcurrent(t *testing.T) {
	w := testWorld(t)
	vopts := VerifyOptions{BatchSize: 10, Parallelism: 2}
	v := mustVerifier(t, w, Options{Seed: 5})

	const workers, rounds = 3, 2
	results := make([]*Result, workers*rounds)
	errs := make([]error, workers*rounds)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := g*rounds + r
				run, err := v.StartRun(context.Background(), w.Document)
				if err != nil {
					errs[i] = err
					return
				}
				team, err := v.NewTeam(3)
				if err != nil {
					errs[i] = err
					return
				}
				results[i], errs[i] = run.Verify(context.Background(), team, vopts)
				run.Close()
			}
		}(g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for i := 1; i < len(results); i++ {
		mustEqualResults(t, "concurrent run", results[0], results[i])
	}
}
