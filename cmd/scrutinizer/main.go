// Command scrutinizer verifies a document of statistical claims against a
// relational corpus and writes the verification report (Definition 4) to
// stdout. Without -corpus it generates and verifies a synthetic world, which
// is the quickest way to see the whole system run.
//
// Usage:
//
//	scrutinizer [-claims n] [-team n] [-batch n] [-ordering ilp|sequential|greedy] [-parallel n] [-seed n]
//	scrutinizer -corpus dir        # load relations from CSV files in dir
//
// With -corpus, every *.csv file in the directory becomes a relation (file
// name minus extension = relation name, first column = key attribute) and
// the tool prints corpus statistics; verifying user-supplied documents
// against a user corpus is done programmatically through the library (see
// README "Plugging in real fact checkers").
//
// With -interactive, a human answers the §5.1 question screens at the
// terminal through the mixed-initiative Oracle interface.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/table"
)

func main() {
	numClaims := flag.Int("claims", 120, "number of synthetic claims to verify")
	teamSize := flag.Int("team", 3, "number of crowd checkers")
	batch := flag.Int("batch", 25, "claims per batch between retrainings")
	orderingFlag := flag.String("ordering", "ilp", "claim ordering: ilp, sequential or greedy")
	parallel := flag.Int("parallel", 0, "claims verified concurrently per batch (0 = all CPUs, 1 = sequential)")
	seed := flag.Int64("seed", 7, "world seed")
	corpusDir := flag.String("corpus", "", "directory of CSV relations to inspect instead of the synthetic corpus")
	interactive := flag.Bool("interactive", false, "answer the question screens yourself at the terminal (mixed-initiative mode)")
	flag.Parse()

	if *interactive {
		if err := runInteractive(os.Stdin, os.Stdout, *numClaims, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *corpusDir != "" {
		if err := inspectCorpus(*corpusDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ordering := core.OrderILP
	switch *orderingFlag {
	case "sequential":
		ordering = core.OrderSequential
	case "greedy":
		ordering = core.OrderGreedy
	case "ilp":
	default:
		fmt.Fprintf(os.Stderr, "unknown ordering %q\n", *orderingFlag)
		os.Exit(2)
	}

	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = *numClaims
	cfg.Seed = *seed
	world, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		fatal(err)
	}
	// A cold start: the verifier knows the document's text but no previous
	// checks, and warms up at the run's batch barriers.
	v, err := scrutinizer.NewVerifier(world.Corpus, world.Document.Unannotated(), scrutinizer.Options{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	run, err := v.StartRun(context.Background(), world.Document)
	if err != nil {
		fatal(err)
	}
	team, err := v.NewTeam(*teamSize)
	if err != nil {
		fatal(err)
	}
	res, err := run.Verify(context.Background(), team, scrutinizer.VerifyOptions{
		BatchSize:       *batch,
		SectionReadCost: 60,
		Ordering:        ordering,
		Parallelism:     *parallel,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Report())
	fmt.Printf("\nverdict accuracy vs injected errors: %.1f%%\n", res.Accuracy()*100)
}

func inspectCorpus(dir string) error {
	corpus, err := table.ReadCSVDir(dir)
	if err != nil {
		return err
	}
	s := corpus.Stats()
	fmt.Printf("corpus: %d relations, %d rows, %d cells\n", s.Relations, s.Rows, s.Cells)
	for _, name := range corpus.Names() {
		r, _ := corpus.Relation(name)
		fmt.Printf("  %-30s %4d rows × %4d attrs\n", name, r.NumRows(), r.NumAttrs())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
