// Quickstart: build a tiny corpus by hand, pose the paper's Example 1
// claim, and let Scrutinizer verify it with a simulated crowd of three.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/repro/scrutinizer"
)

func main() {
	// The Figure 1 fragment: Global Energy Demand history and estimates.
	corpus := scrutinizer.NewCorpus()
	ged, err := scrutinizer.NewRelation("GED", "Index", []string{"2016", "2017", "2030", "2040"})
	if err != nil {
		log.Fatal(err)
	}
	rows := map[string][]float64{
		"PGElecDemand": {21546, 22209, 29349, 35526},
		"PGINCoal":     {2390, 2412, 2341, 2353},
		"TFCelec":      {21465, 22040, 28566, 34790},
	}
	for key, vals := range rows {
		if err := ged.AddRow(key, vals); err != nil {
			log.Fatal(err)
		}
	}
	if err := corpus.Add(ged); err != nil {
		log.Fatal(err)
	}

	// Example 1's claim: "In 2017, global electricity demand grew by 3%,
	// reaching 22 200 TWh." — annotated with the CAGR check an IEA
	// expert would write.
	claim := &scrutinizer.Claim{
		ID:       1,
		Text:     "in 2017 global electricity demand grew by 3%",
		Sentence: "In 2017, global electricity demand grew by 3%, more than any other fuel besides solar thermal, reaching 22 200 TWh.",
		Kind:     scrutinizer.KindExplicit,
		Param:    0.03,
		HasParam: true,
		Correct:  true,
		Truth: &scrutinizer.GroundTruth{
			Relations: []string{"GED"},
			Keys:      []string{"PGElecDemand"},
			Attrs:     []string{"2017", "2016"},
			Formula:   "POWER(a.A1 / b.A2, 1 / (A1 - A2)) - 1",
			Value:     22209.0/21546.0 - 1,
		},
	}
	// A second, incorrect claim (Example 4): demand grew by 2.5%.
	wrong := &scrutinizer.Claim{
		ID:       2,
		Text:     "in 2017 global electricity demand grew by 2.5%",
		Sentence: "In 2017, global electricity demand grew by 2.5% according to the draft.",
		Param:    0.025,
		HasParam: true,
		Correct:  false,
		Truth:    claim.Truth,
	}

	doc := &scrutinizer.Document{
		Title:    "Quickstart fragment",
		Sections: 1,
		Claims:   []*scrutinizer.Claim{claim, wrong},
	}

	// No previous checks exist: fit the verifier on the document without
	// its annotations (a cold start). The simulated crowd answers from the
	// annotated claims the run verifies.
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

	for _, c := range doc.Claims {
		out, err := run.VerifyClaim(context.Background(), c, team)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("claim: %q\n  verdict: %s (query value %.4f)\n", c.Text, out.Verdict, out.Value)
		if out.Query != nil {
			fmt.Printf("  query:   %s\n", out.Query.SQL())
		}
		if out.HasSuggestion {
			fmt.Printf("  suggested correction: %.4f (i.e. %.1f%%)\n", out.Suggestion, out.Suggestion*100)
		}
		fmt.Printf("  crowd time: %.0f person-seconds\n\n", out.Seconds)
	}
}
