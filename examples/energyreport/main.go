// Energyreport: verify a full synthetic IEA-style report with a crowd of
// three checkers, comparing claim ordering strategies (the §6.2 scenario in
// miniature). Prints per-batch progress and the final report summary.
//
// Run with: go run ./examples/energyreport
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/report"
)

func main() {
	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = 150
	cfg.NumSections = 10
	cfg.ErrorRate = 0.25
	world, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d relations, %d claims in %d sections\n\n",
		world.Corpus.Len(), len(world.Document.Claims), world.Document.Sections)

	for _, ordering := range []core.Ordering{core.OrderSequential, core.OrderILP} {
		v, err := scrutinizer.NewVerifier(world.Corpus, world.Document.Unannotated(), scrutinizer.Options{Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		run, err := v.StartRun(context.Background(), world.Document)
		if err != nil {
			log.Fatal(err)
		}
		team, err := crowd.NewTeam("E", 3, 0.97, 42)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- ordering: %s ---\n", ordering)
		res, err := run.Engine().Verify(context.Background(), world.Document, team, core.VerifyConfig{
			BatchSize:       25,
			SectionReadCost: 60,
			Ordering:        ordering,
			AfterBatch: func(batch, verified int, outs []*core.Outcome) {
				var secs float64
				correct := 0
				for _, o := range outs {
					secs += o.Seconds
					if o.Verdict == core.VerdictCorrect {
						correct++
					}
				}
				fmt.Printf("  batch %d: %d claims (%d judged correct), %.0f person-seconds\n",
					batch, len(outs), correct, secs)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		rep := &report.Report{Document: world.Document, Outcomes: res.Outcomes, Seconds: res.Seconds}
		s := rep.Summarise()
		fmt.Printf("total: %.0f person-seconds (%.0f s/claim), verdict accuracy %.1f%%, %d corrections suggested\n\n",
			s.Seconds, s.PerClaim, s.Accuracy*100, s.Suggestion)
	}
}
