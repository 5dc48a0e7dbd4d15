// Multitenant: the fit-once / verify-many serving model. One Verifier is
// trained on an archived annotated report ("a database of previously
// checked claims"); it then verifies several fresh documents — including
// concurrently — without ever refitting the feature pipeline or racing
// its own batch-boundary retraining, because every run executes on a
// private copy-on-write clone of the verifier's engine.
//
// This is the library shape of what cmd/scrutinizerd serves as the /v1
// REST API (corpora → verifiers → runs).
//
// Run with: go run ./examples/multitenant
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/repro/scrutinizer"
)

func main() {
	// One corpus, one archived annotated document to train from.
	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = 160
	world, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Register the corpus with a service and train a verifier over it —
	// feature fitting and classifier training happen exactly once.
	svc := scrutinizer.NewService()
	if _, err := svc.AddCorpus("energy", world.Corpus); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	v, err := svc.CreateVerifier("energy", world.Document, scrutinizer.Options{Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained verifier %q in %v (%d labelled claims, feature dim %d)\n",
		v.ID(), time.Since(start).Round(time.Millisecond), v.TrainedOn(), v.FeatureDim())

	// Three "incoming reports": slices of the document standing in for
	// fresh editions checked against the same statistical corpus.
	n := len(world.Document.Claims)
	reports := []*scrutinizer.Document{
		slice(world.Document, "Q1 report", 0, n/3),
		slice(world.Document, "Q2 report", n/3, 2*n/3),
		slice(world.Document, "Q3 report", 2*n/3, n),
	}

	// Serve them concurrently on the one warm verifier.
	var wg sync.WaitGroup
	for _, doc := range reports {
		wg.Add(1)
		go func(doc *scrutinizer.Document) {
			defer wg.Done()
			t0 := time.Now()
			run, err := v.StartRun(context.Background(), doc)
			if err != nil {
				log.Fatal(err)
			}
			setup := time.Since(t0)
			team, err := v.NewTeam(3)
			if err != nil {
				log.Fatal(err)
			}
			res, err := run.Verify(context.Background(), team, scrutinizer.VerifyOptions{BatchSize: 25})
			if err != nil {
				log.Fatal(err)
			}
			cov := run.Coverage()
			correct := 0
			for _, o := range res.Outcomes {
				if o.Verdict == scrutinizer.VerdictCorrect {
					correct++
				}
			}
			fmt.Printf("%-10s %3d claims  setup %8v  accuracy %.2f  %d correct  vocab coverage %.0f%%\n",
				doc.Title, len(doc.Claims), setup.Round(time.Microsecond),
				res.Accuracy(), correct, cov.TFIDFRatio()*100)
		}(doc)
	}
	wg.Wait()

	// The verifier itself never changed: runs retrain their private
	// engines, the shared trained state stays at generation 1.
	fmt.Printf("verifier after serving: generation %d, %d runs started\n",
		v.Generation(), v.Runs())
	st := svc.Stats()
	fmt.Printf("service: %d corpus, %d verifier, %d runs\n", st.Corpora, st.Verifiers, st.Runs)
}

// slice builds a document over a claim range, keeping the section span.
func slice(doc *scrutinizer.Document, title string, lo, hi int) *scrutinizer.Document {
	return &scrutinizer.Document{Title: title, Sections: doc.Sections, Claims: doc.Claims[lo:hi]}
}
