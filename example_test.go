package scrutinizer_test

import (
	"context"
	"fmt"
	"log"

	"github.com/repro/scrutinizer"
)

// ExampleRun_VerifyClaim builds the Figure 1 corpus fragment by hand, poses
// the paper's Example 1 claim, and verifies it with a simulated crowd of
// three. No previous checks exist, so the verifier is fitted on the
// unannotated document (a cold start).
func ExampleRun_VerifyClaim() {
	corpus := scrutinizer.NewCorpus()
	ged, err := scrutinizer.NewRelation("GED", "Index", []string{"2016", "2017"})
	if err != nil {
		log.Fatal(err)
	}
	if err := ged.AddRow("PGElecDemand", []float64{21546, 22209}); err != nil {
		log.Fatal(err)
	}
	if err := corpus.Add(ged); err != nil {
		log.Fatal(err)
	}

	// "In 2017, global electricity demand grew by 3%" — annotated with the
	// growth-rate check an expert would write.
	claim := &scrutinizer.Claim{
		ID:       1,
		Text:     "in 2017 global electricity demand grew by 3%",
		Sentence: "In 2017, global electricity demand grew by 3%, reaching 22 200 TWh.",
		Kind:     scrutinizer.KindExplicit,
		Param:    0.03,
		HasParam: true,
		Correct:  true,
		Truth: &scrutinizer.GroundTruth{
			Relations: []string{"GED"},
			Keys:      []string{"PGElecDemand"},
			Attrs:     []string{"2017", "2016"},
			Formula:   "a.A1 / b.A2 - 1",
			Value:     22209.0/21546.0 - 1,
		},
	}
	// A second, incorrect claim (Example 4): demand grew by 2.5%.
	wrong := &scrutinizer.Claim{
		ID:       2,
		Text:     "in 2017 global electricity demand grew by 2.5%",
		Sentence: "In 2017, global electricity demand grew by 2.5% according to the draft.",
		Kind:     scrutinizer.KindExplicit,
		Param:    0.025,
		HasParam: true,
		Truth: &scrutinizer.GroundTruth{
			Relations: []string{"GED"},
			Keys:      []string{"PGElecDemand"},
			Attrs:     []string{"2017", "2016"},
			Formula:   "a.A1 / b.A2 - 1",
			Value:     22209.0/21546.0 - 1,
		},
	}
	doc := &scrutinizer.Document{Title: "WEO demo", Sections: 1, Claims: []*scrutinizer.Claim{claim, wrong}}

	v, err := scrutinizer.NewVerifier(corpus, doc.Unannotated(), scrutinizer.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	run, err := v.StartRun(context.Background(), doc)
	if err != nil {
		log.Fatal(err)
	}
	team, err := v.NewTeam(3)
	if err != nil {
		log.Fatal(err)
	}
	out, err := run.VerifyClaim(context.Background(), claim, team)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verdict: %s\n", out.Verdict)
	fmt.Printf("query value: %.3f\n", out.Value)
	// Output:
	// verdict: correct
	// query value: 0.031
}

// ExampleRun_Verify runs the full Algorithm 1 loop over a small synthetic
// world from a cold start, fanning each batch out across four goroutines.
// Results are identical at any Parallelism setting.
func ExampleRun_Verify() {
	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = 30
	world, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	v, err := scrutinizer.NewVerifier(world.Corpus, world.Document.Unannotated(), scrutinizer.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	run, err := v.StartRun(context.Background(), world.Document)
	if err != nil {
		log.Fatal(err)
	}
	team, err := v.NewTeam(3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := run.Verify(context.Background(), team, scrutinizer.VerifyOptions{
		BatchSize:   10,
		Parallelism: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("claims verified: %d in %d batches\n", len(res.Outcomes), res.Batches)
	fmt.Printf("verdict accuracy: %.2f\n", res.Accuracy())
	// Output:
	// claims verified: 30 in 3 batches
	// verdict accuracy: 1.00
}

// ExampleNewVerifier shows the fit-once / verify-many serving shape: a
// verifier trained on an archived annotated document serves two new
// documents without refitting features, and the trained state is never
// mutated by the runs.
func ExampleNewVerifier() {
	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = 30
	world, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	v, err := scrutinizer.NewVerifier(world.Corpus, world.Document, scrutinizer.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	// Two "new editions" checked against the same trained verifier.
	half := len(world.Document.Claims) / 2
	docs := []*scrutinizer.Document{
		{Title: "edition A", Sections: world.Document.Sections, Claims: world.Document.Claims[:half]},
		{Title: "edition B", Sections: world.Document.Sections, Claims: world.Document.Claims[half:]},
	}
	for _, doc := range docs {
		run, err := v.StartRun(context.Background(), doc)
		if err != nil {
			log.Fatal(err)
		}
		team, err := v.NewTeam(3)
		if err != nil {
			log.Fatal(err)
		}
		res, err := run.Verify(context.Background(), team, scrutinizer.VerifyOptions{BatchSize: 10})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d claims, accuracy %.2f\n", doc.Title, len(res.Outcomes), res.Accuracy())
	}
	fmt.Printf("verifier generation after serving: %d\n", v.Generation())
	// Output:
	// edition A: 15 claims, accuracy 1.00
	// edition B: 15 claims, accuracy 1.00
	// verifier generation after serving: 1
}
