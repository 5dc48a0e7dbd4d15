// Financereport: Scrutinizer on a different domain. Builds a small
// quarterly-finance corpus by hand (revenue/opex/margin per business line),
// writes claims the way an earnings report would, and verifies them. Shows
// that nothing in the system is energy-specific: the domain lexicon is
// overridden so "aggressively" means >30% growth here, as §2 discusses.
//
// Run with: go run ./examples/financereport
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/repro/scrutinizer"
)

func main() {
	corpus := scrutinizer.NewCorpus()
	quarters := []string{"2023Q1", "2023Q2", "2023Q3", "2023Q4", "2024Q1", "2024Q2", "2024Q3", "2024Q4"}
	fin, err := scrutinizer.NewRelation("Financials", "Line", quarters)
	if err != nil {
		log.Fatal(err)
	}
	rows := map[string][]float64{
		"RevenueCloud":  {120, 131, 150, 166, 180, 205, 228, 251},
		"RevenueLegacy": {300, 296, 290, 287, 280, 271, 262, 255},
		"OpexTotal":     {260, 262, 270, 280, 283, 291, 300, 310},
		"HeadcountEng":  {820, 845, 880, 930, 990, 1035, 1080, 1140},
		"MarginPercent": {18, 19, 21, 22, 23, 25, 26, 27},
	}
	for line, vals := range rows {
		if err := fin.AddRow(line, vals); err != nil {
			log.Fatal(err)
		}
	}
	if err := corpus.Add(fin); err != nil {
		log.Fatal(err)
	}

	mk := func(id int, text, sentence string, param float64, correct bool, truth *scrutinizer.GroundTruth) *scrutinizer.Claim {
		return &scrutinizer.Claim{
			ID: id, Text: text, Sentence: sentence,
			Param: param, HasParam: true, Correct: correct, Truth: truth,
		}
	}
	doc := &scrutinizer.Document{
		Title:    "FY2024 earnings narrative",
		Sections: 2,
		Claims: []*scrutinizer.Claim{
			// Cloud revenue roughly doubled over the eight quarters:
			// 251/120 = 2.09.
			mk(1, "cloud revenue increased 2.1-fold from 2023Q1 to 2024Q4",
				"Over two years, cloud revenue increased 2.1-fold from 2023Q1 to 2024Q4, offsetting the legacy decline.",
				2.1, true, &scrutinizer.GroundTruth{
					Relations: []string{"Financials"},
					Keys:      []string{"RevenueCloud"},
					Attrs:     []string{"2024Q4", "2023Q1"},
					Formula:   "a.A1 / b.A2",
					Value:     251.0 / 120.0,
				}),
			// Legacy declined ~3.3% 2024Q3->2024Q4 ... claim says 10%:
			// incorrect.
			mk(2, "legacy revenue fell by 10% in 2024Q4",
				"Meanwhile, legacy revenue fell by 10% in 2024Q4 as customers migrated.",
				-0.10, false, &scrutinizer.GroundTruth{
					Relations: []string{"Financials"},
					Keys:      []string{"RevenueLegacy"},
					Attrs:     []string{"2024Q4", "2024Q3"},
					Formula:   "(a.A1 / b.A2) - 1",
					Value:     255.0/262.0 - 1,
				}),
			// Margin reached 27 percent in 2024Q4: correct lookup.
			mk(3, "operating margin reached 27% in 2024Q4",
				"As a result, operating margin reached 27% in 2024Q4, a record.",
				27, true, &scrutinizer.GroundTruth{
					Relations: []string{"Financials"},
					Keys:      []string{"MarginPercent"},
					Attrs:     []string{"2024Q4"},
					Formula:   "a.A1",
					Value:     27,
				}),
			// Opex grew by 3.3% Q/Q; claim says it was flat (±1%):
			// incorrect general claim.
			mk(4, "operating expenses stayed flat in 2024Q4",
				"Management noted that operating expenses stayed flat in 2024Q4.",
				0.0, false, &scrutinizer.GroundTruth{
					Relations: []string{"Financials"},
					Keys:      []string{"OpexTotal"},
					Attrs:     []string{"2024Q4", "2024Q3"},
					Formula:   "(a.A1 / b.A2) - 1",
					Value:     310.0/300.0 - 1,
				}),
		},
	}
	// Quarterly-label arithmetic (2024Q4 - 2024Q3) is undefined, so the
	// claims here avoid CAGR-style formulas; everything else carries over.
	v, err := scrutinizer.NewVerifier(corpus, doc.Unannotated(), scrutinizer.Options{Seed: 9, Tolerance: 0.02})
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
	res, err := run.Verify(context.Background(), team, scrutinizer.VerifyOptions{BatchSize: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report())
	fmt.Printf("\nverdict accuracy: %.0f%%\n", res.Accuracy()*100)
}
