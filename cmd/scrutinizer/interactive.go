package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/planner"
)

// terminalOracle implements the mixed-initiative Oracle against a human at
// a terminal: each question screen is printed, the checker picks an option
// by number or types a value. The "(s)kip" answer leaves a screen
// unanswered.
type terminalOracle struct {
	in  *bufio.Scanner
	out io.Writer
}

func newTerminalOracle(in io.Reader, out io.Writer) *terminalOracle {
	return &terminalOracle{in: bufio.NewScanner(in), out: out}
}

// AnswerProperty implements core.Oracle.
func (t *terminalOracle) AnswerProperty(c *claims.Claim, kind core.PropertyKind, options []planner.Option) (string, float64) {
	fmt.Fprintf(t.out, "\nclaim %d: %q\n", c.ID, c.Text)
	fmt.Fprintf(t.out, "which %s does the verifying query use?\n", kind)
	for i, o := range options {
		fmt.Fprintf(t.out, "  [%d] %s (p=%.2f)\n", i+1, o.Value, o.Prob)
	}
	fmt.Fprintf(t.out, "number, free-text value, or s to skip > ")
	line, ok := t.read()
	if !ok || line == "s" {
		return "", 0
	}
	if n, err := strconv.Atoi(line); err == nil && n >= 1 && n <= len(options) {
		return options[n-1].Value, 0
	}
	return line, 0
}

// AnswerFinal implements core.Oracle.
func (t *terminalOracle) AnswerFinal(c *claims.Claim, candidates []string) (string, float64) {
	fmt.Fprintf(t.out, "\nclaim %d: %q\n", c.ID, c.Text)
	fmt.Fprintln(t.out, "candidate verifying queries:")
	for i, sql := range candidates {
		fmt.Fprintf(t.out, "  [%d] %s\n", i+1, sql)
	}
	fmt.Fprintf(t.out, "number, a full SQL statement, or s to skip > ")
	line, ok := t.read()
	if !ok || line == "s" {
		return "", 0
	}
	if n, err := strconv.Atoi(line); err == nil && n >= 1 && n <= len(candidates) {
		return candidates[n-1], 0
	}
	return line, 0
}

func (t *terminalOracle) read() (string, bool) {
	if !t.in.Scan() {
		return "", false
	}
	return strings.TrimSpace(t.in.Text()), true
}

// runInteractive verifies claims one by one with a human at the terminal.
func runInteractive(in io.Reader, out io.Writer, numClaims int, seed int64) error {
	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = 40
	cfg.Seed = seed
	world, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		return err
	}
	// Train on the world's annotations so screens show useful options, as
	// when previous checks exist.
	v, err := scrutinizer.NewVerifier(world.Corpus, world.Document, scrutinizer.Options{Seed: seed})
	if err != nil {
		return err
	}
	run, err := v.StartRun(context.Background(), world.Document)
	if err != nil {
		return err
	}
	oracle := newTerminalOracle(in, out)
	if numClaims > len(world.Document.Claims) {
		numClaims = len(world.Document.Claims)
	}
	for _, c := range world.Document.Claims[:numClaims] {
		res, err := run.VerifyClaimWith(context.Background(), c, oracle)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n=> verdict: %s", res.Verdict)
		if res.Query != nil {
			fmt.Fprintf(out, " (value %.6g)\n   query: %s", res.Value, res.Query.SQL())
		}
		if res.HasSuggestion {
			fmt.Fprintf(out, "\n   suggested correction: %.6g", res.Suggestion)
		}
		fmt.Fprintln(out)
	}
	return nil
}
