// Activelearning: the cold-start scenario of §6.2 in isolation. A fresh
// verifier (no previous checks) verifies a report batch by batch; after each
// batch the classifiers retrain on crowd-validated labels. The example
// prints the accuracy curve of every classifier and the falling per-claim
// crowd cost — the mechanism behind Figures 8 and 9.
//
// Run with: go run ./examples/activelearning
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
)

func main() {
	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = 160
	world, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	v, err := scrutinizer.NewVerifier(world.Corpus, world.Document.Unannotated(), scrutinizer.Options{Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	run, err := v.StartRun(context.Background(), world.Document)
	if err != nil {
		log.Fatal(err)
	}
	engine := run.Engine()
	team, err := crowd.NewTeam("A", 3, 0.98, 17)
	if err != nil {
		log.Fatal(err)
	}

	// Held-out probe: every fourth claim, scored with ground-truth labels.
	var probe []*scrutinizer.Claim
	for i, c := range world.Document.Claims {
		if i%4 == 0 {
			probe = append(probe, c)
		}
	}
	probeAccuracy := func(kind core.PropertyKind) float64 {
		var ex []classifier.Example
		for _, c := range probe {
			if label := core.TruthLabel(c.Truth, kind); label != "" {
				ex = append(ex, classifier.Example{Features: engine.Featurize(c), Label: label})
			}
		}
		return engine.Model(kind).Accuracy(ex)
	}

	fmt.Println("batch  claims  rel-acc  key-acc  attr-acc  formula-acc  s/claim")
	_, err = engine.Verify(context.Background(), world.Document, team, core.VerifyConfig{
		BatchSize: 20,
		Ordering:  core.OrderILP,
		AfterBatch: func(batch, verified int, outs []*core.Outcome) {
			var secs float64
			for _, o := range outs {
				secs += o.Seconds
			}
			fmt.Printf("%5d  %6d  %7.2f  %7.2f  %8.2f  %11.2f  %7.0f\n",
				batch, verified,
				probeAccuracy(core.PropRelation), probeAccuracy(core.PropKey),
				probeAccuracy(core.PropAttr), probeAccuracy(core.PropFormula),
				secs/float64(len(outs)))
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nAccuracy climbs batch over batch while per-claim crowd cost falls —")
	fmt.Println("the warm-up dynamic behind the paper's Figures 8 and 9.")
}
