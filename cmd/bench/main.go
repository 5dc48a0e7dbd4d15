// Command bench runs the tracked benchmark suite with -benchmem and writes
// the results to BENCH_<date>.json, so the repository accumulates a
// machine-readable performance trajectory alongside the paper-figure
// numbers. Run it from the repository root after perf-relevant changes:
//
//	go run ./cmd/bench                    # default tracked set, 1s per bench, one core
//	go run ./cmd/bench -benchtime 2s      # steadier numbers
//	go run ./cmd/bench -bench 'Train' -pkg ./internal/classifier
//	go run ./cmd/bench -out /tmp -date 2026-01-31
//	go run ./cmd/bench -baseline BENCH_2026-10-18.json -max-ratio 2
//	go run ./cmd/bench -cpu 2          # multi-core pass -> BENCH_<date>.cpu2.json
//
// The default tracked set covers the numeric hot path (classifier training
// and scoring, sparse-vector ops, TF-IDF transform), the end-to-end
// document verification loop, and the interactive session lifecycle
// (create / answer-pump / evict). Each record carries ns/op, B/op,
// allocs/op and any custom b.ReportMetric metrics, plus enough environment
// metadata (go version, CPU, GOMAXPROCS) to make cross-machine comparisons
// honest.
//
// With -baseline the run is also a regression gate: each fresh ns/op is
// compared against the same-named benchmark in the given BENCH_*.json and
// the process exits non-zero when any tracked benchmark slowed down by
// more than -max-ratio (default 2x). allocs/op is gated the same way under
// its own -max-alloc-ratio (default 1.5x — allocation counts are nearly
// deterministic, so the threshold can be much tighter than the timing
// one). Benchmarks missing from the baseline are reported but do not fail
// the gate, so new benchmarks can land before the baseline is refreshed.
// Ratios, not absolute numbers, keep the gate meaningful across machines
// of similar class; the wide 2x timing threshold absorbs the remaining
// machine-to-machine spread.
//
// Every pass with a duration -benchtime is also gated on ratios between
// benchmarks of the same pass (ratioGates): the AVX2 classifier kernels
// against their Go bodies, and, from -cpu 2 on, eight concurrent runs
// against one. A lost kernel or lost multi-core scaling then fails the
// pass on any machine, without a baseline; a 2x gate against a baseline
// would barely notice either. The kernel gates are skipped on CPUs that
// run the Go kernels, and every ratio gate is skipped under an
// iteration-count -benchtime such as 1x, whose timings are too few to
// compare.
//
// Every run passes `go test -cpu N` (GOMAXPROCS=N) and records gomaxprocs
// as N. The default -cpu 1 is the single-core baseline, BENCH_<date>.json;
// -cpu N > 1 writes BENCH_<date>.cpuN.json instead — the committed
// multi-core baseline that keeps the parallel paths honest next to the
// single-core one.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/core"
)

// trackedBench names one benchmark selection: a package and a -bench regex.
type trackedBench struct {
	Pkg   string
	Bench string
}

// defaultTracked is the curated paper-figure + hot-path set. The classifier
// three are the acceptance benchmarks of the sparse-engine rewrite; the
// table/query/core trio time the compiled query engine: cell lookup,
// Query.Execute and Plan.ExecCoords, and Algorithm 2's query generation
// warm and cold; the root Verify pair is the serving-throughput headline.
// BenchmarkVerifyInstrumented vs BenchmarkVerifyEndToEnd pins the cost of
// the run-lifecycle metric hooks: <2% ns/op and equal allocs/op.
// BenchmarkRetrainLabelGrowth/fresh pins warm-start retraining over a
// growing label vocabulary (cold refits would cost about 3x), and /run a
// run's own sequence: a cold refit of the verifier's clone, then appended
// fits. The refit keeps the verifier's class stride, so re-laying the
// matrices out at every few barriers again would show in its B/op.
// BenchmarkScorePaperShape times one paper-shape scoring pass per sweep
// body (/go, and /avx2 where the CPU has it), and
// BenchmarkAdagradPaperShape one paper-shape AdaGrad update per update
// body; ratioGates holds the AVX2 bodies to at most 0.6x and 0.75x of
// the Go bodies' ns/op.
// BenchmarkServiceAddCorpus/ephemeral pins that registering a corpus
// without a store builds no journal record (a few dozen allocs, not one
// per cell). BenchmarkReadCSV pins parsing a paper-shape relation
// straight into its cells, the bulk of recovering a corpus, and
// BenchmarkRecoveryBoot/File a restart over a file store, the open scan
// included, and BenchmarkRecoveryBoot/Churned a restart over a journal
// of deleted tenant lifecycles, of which nothing may be decoded.
// BenchmarkJournalCompact compacts that same journal to its survivor.
// BenchmarkDecodeCorpusPayload pins decoding a paper-shape
// corpus dump on the journal's canonical JSON path, not encoding/json.
var defaultTracked = []trackedBench{
	{Pkg: "./internal/classifier", Bench: "BenchmarkTrain500x200|BenchmarkWarmRetrain500x200|BenchmarkRetrainLabelGrowth|BenchmarkPredictTopK|BenchmarkEntropy|BenchmarkScorePaperShape|BenchmarkAdagradPaperShape"},
	{Pkg: "./internal/textproc", Bench: "BenchmarkSparseDot|BenchmarkTransform"},
	{Pkg: "./internal/table", Bench: "BenchmarkCellLookup$|BenchmarkCellLookupString|BenchmarkReadCSV"},
	{Pkg: "./internal/query", Bench: "BenchmarkPlanExecute|BenchmarkExecuteCompiled"},
	{Pkg: "./internal/core", Bench: "BenchmarkGenerateQueries$|BenchmarkGenerateQueriesCold|BenchmarkVerifyEndToEnd$|BenchmarkVerifyWithDeadline|BenchmarkVerifyInstrumented"},
	{Pkg: "./internal/session", Bench: "BenchmarkSessionCreate|BenchmarkSessionAnswerPump|BenchmarkSessionEvict"},
	{Pkg: "./internal/store", Bench: "BenchmarkDecodeCorpusPayload"},
	{Pkg: ".", Bench: "BenchmarkVerifySequential/SmallWorld|BenchmarkVerifyParallel/SmallWorld|BenchmarkServiceVerifyCold|BenchmarkServiceVerifyWarm|BenchmarkServiceSetupCold|BenchmarkServiceSetupWarm|BenchmarkRecoveryBoot|BenchmarkJournalCompact|BenchmarkServiceAddCorpus|BenchmarkConcurrentRunsSharedCorpus|BenchmarkServiceManyTenants"},
}

// ratioGate fails a pass when benchmark Num takes more than Max times the
// ns/op of benchmark Den, both measured in that pass. Bench selects both
// in Pkg, to re-measure them.
type ratioGate struct {
	Pkg, Bench, Num, Den string
	Max                  float64
	// AVX2 marks a kernel gate, skipped on CPUs that run the Go kernels.
	AVX2 bool
	// MinCPU is the lowest -cpu at which the gate applies.
	MinCPU int
}

// ratioGates are the in-pass gates. On a 2-vCPU Xeon the AVX2 sweep
// measured 0.38-0.55x its Go body and the AVX2 update 0.55-0.64x (the
// upper ends in passes that shared the CPU), and eight concurrent runs
// 1.9-2.4x faster than one. A lost kernel reads about 1.0x, well past
// its limit; C8 against C1 holds at least a 1.5x speed-up.
var ratioGates = []ratioGate{
	{Pkg: "./internal/classifier", Bench: "BenchmarkScorePaperShape/labels=405$",
		Num: "BenchmarkScorePaperShape/labels=405/avx2", Den: "BenchmarkScorePaperShape/labels=405/go", Max: 0.6, AVX2: true},
	{Pkg: "./internal/classifier", Bench: "BenchmarkAdagradPaperShape$",
		Num: "BenchmarkAdagradPaperShape/avx2", Den: "BenchmarkAdagradPaperShape/go", Max: 0.75, AVX2: true},
	{Pkg: ".", Bench: "BenchmarkConcurrentRunsSharedCorpus$",
		Num: "BenchmarkConcurrentRunsSharedCorpus/C8", Den: "BenchmarkConcurrentRunsSharedCorpus/C1", Max: 0.67, MinCPU: 2},
}

// result is one benchmark line, parsed.
type result struct {
	Name        string             `json:"name"`
	Package     string             `json:"package"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// report is the BENCH_<date>.json document.
type report struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// QueryCacheShards records the striping width of the shared
	// tentative-execution cache — the knob the concurrent benchmarks are
	// most sensitive to, so cross-commit comparisons can tell a code
	// change from a topology change.
	QueryCacheShards int      `json:"query_cache_shards"`
	BenchTime        string   `json:"benchtime"`
	Benchmarks       []result `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8  123  456 ns/op  <metrics...>".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	benchRe := flag.String("bench", "", "benchmark regex (overrides the tracked set)")
	pkg := flag.String("pkg", "", "package pattern to bench (with -bench; default tracked set)")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value (e.g. 2s, 10x)")
	out := flag.String("out", ".", "directory for BENCH_<date>.json")
	date := flag.String("date", time.Now().Format("2006-01-02"), "date stamp for the output file")
	baseline := flag.String("baseline", "", "BENCH_*.json to gate against; exit non-zero on regressions")
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when fresh ns/op exceeds baseline ns/op by this factor (with -baseline)")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 1.5, "fail when fresh allocs/op exceeds baseline allocs/op by this factor (with -baseline; 0 disables)")
	cpuN := flag.Int("cpu", 1, "run the suite under `go test -cpu N`; N > 1 writes BENCH_<date>.cpuN.json")
	flag.Parse()
	if *cpuN < 1 {
		fmt.Fprintln(os.Stderr, "bench: -cpu must be at least 1")
		os.Exit(2)
	}

	tracked := defaultTracked
	if *benchRe != "" {
		p := *pkg
		if p == "" {
			p = "./..."
		}
		tracked = []trackedBench{{Pkg: p, Bench: *benchRe}}
	}

	rep := report{
		Date:             *date,
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		GOMAXPROCS:       *cpuN,
		QueryCacheShards: core.QueryCacheShards,
		BenchTime:        *benchtime,
	}
	for _, t := range tracked {
		results, cpu, err := runBench(t, *benchtime, *cpuN)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", t.Pkg, err)
			os.Exit(1)
		}
		if cpu != "" {
			rep.CPU = cpu
		}
		rep.Benchmarks = append(rep.Benchmarks, results...)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no benchmarks matched")
		os.Exit(1)
	}

	name := "BENCH_" + *date + ".json"
	if *cpuN > 1 {
		name = fmt.Sprintf("BENCH_%s.cpu%d.json", *date, *cpuN)
	}
	path := filepath.Join(*out, name)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: closing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		fmt.Printf("  %-45s %14.0f ns/op %12.0f B/op %8.0f allocs/op\n",
			b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}

	failed := false
	if err := checkRatioGates(rep.Benchmarks, *benchtime, *cpuN); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		failed = true
	}
	if *baseline != "" {
		if err := gateAgainstBaseline(*baseline, tracked, rep.Benchmarks, *benchtime, *cpuN, *maxRatio, *maxAllocRatio); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkRatioGates applies ratioGates to a pass's results. A gate is
// skipped unless the pass ran both of its benchmarks (a -bench selection
// may leave them out). A ratio over its limit is re-measured once, like a
// baseline regression, and fails only when the second pass is over the
// limit too.
func checkRatioGates(fresh []result, benchtime string, cpuN int) error {
	if strings.HasSuffix(benchtime, "x") {
		fmt.Printf("ratio gates skipped: -benchtime %s counts iterations\n", benchtime)
		return nil
	}
	byName := make(map[string]result, len(fresh))
	for _, r := range fresh {
		byName[r.Name] = r
	}
	var failures []string
	for _, g := range ratioGates {
		if cpuN < g.MinCPU {
			continue
		}
		if g.AVX2 && classifier.Kernel() != "avx2" {
			fmt.Printf("ratio gate %s skipped: this CPU runs the %s kernels\n", g.Num, classifier.Kernel())
			continue
		}
		num, okNum := byName[g.Num]
		den, okDen := byName[g.Den]
		if !okNum || !okDen || num.NsPerOp <= 0 || den.NsPerOp <= 0 {
			continue // not both in this pass
		}
		ratio := num.NsPerOp / den.NsPerOp
		if ratio > g.Max {
			fmt.Printf("re-measuring %s / %s = %.2f (limit %.2f)\n", g.Num, g.Den, ratio, g.Max)
			again, _, err := runBench(trackedBench{Pkg: g.Pkg, Bench: g.Bench}, benchtime, cpuN)
			if err != nil {
				return err
			}
			var n2, d2 float64
			for _, r := range again {
				switch r.Name {
				case g.Num:
					n2 = r.NsPerOp
				case g.Den:
					d2 = r.NsPerOp
				}
			}
			if n2 > 0 && d2 > 0 {
				ratio = min(ratio, n2/d2)
			}
		}
		if ratio > g.Max {
			failures = append(failures, fmt.Sprintf("%s takes %.2fx %s (limit %.2fx)", g.Num, ratio, g.Den, g.Max))
			continue
		}
		fmt.Printf("ratio gate passed: %s takes %.2fx %s (limit %.2fx)\n", g.Num, ratio, g.Den, g.Max)
	}
	if len(failures) > 0 {
		return errors.New("ratio gates failed:\n  " + strings.Join(failures, "\n  "))
	}
	return nil
}

// regression is one benchmark measurement (timing or allocation count)
// that came in worse than the baseline allows.
type regression struct {
	res   result
	unit  string // "ns/op" or "allocs/op"
	fresh float64
	base  float64
}

func (r regression) String() string {
	return fmt.Sprintf("%-45s %.2fx worse (%.0f %s vs %.0f %s baseline)",
		r.res.Name, r.fresh/r.base, r.fresh, r.unit, r.base, r.unit)
}

// gateAgainstBaseline fails (returns an error) when any fresh benchmark is
// more than maxRatio slower — or allocates more than maxAllocRatio times
// as often — as its committed baseline entry. Suspected regressions are
// re-measured once before failing: on shared CI runners a noisy neighbour
// can slow a microbenchmark past 2x, but a genuine regression reproduces;
// only benchmarks bad in both passes fail the gate. Benchmarks absent from
// the baseline are reported and skipped (they are new; the next baseline
// refresh covers them).
func gateAgainstBaseline(path string, tracked []trackedBench, fresh []result, benchtime string, cpuN int, maxRatio, maxAllocRatio float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseBy := make(map[string]result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	regressions := findRegressions(fresh, baseBy, maxRatio, maxAllocRatio)
	if len(regressions) > 0 {
		fmt.Printf("re-measuring %d suspected regression(s) to rule out runner noise\n", len(regressions))
		pkgs := map[string]bool{}
		for _, r := range regressions {
			pkgs[r.res.Package] = true
		}
		var retried []result
		for _, t := range tracked {
			if !pkgs[t.Pkg] {
				continue
			}
			results, _, err := runBench(t, benchtime, cpuN)
			if err != nil {
				return err
			}
			retried = append(retried, results...)
		}
		// Keep the better of the two measurements per benchmark and
		// metric: the gate cares about the best the code can do, not the
		// worst the runner did.
		best := make(map[string]result, len(regressions))
		for _, r := range regressions {
			best[r.res.Name] = r.res
		}
		for _, b := range retried {
			prev, ok := best[b.Name]
			if !ok {
				continue
			}
			if b.NsPerOp < prev.NsPerOp {
				prev.NsPerOp = b.NsPerOp
			}
			if b.AllocsPerOp < prev.AllocsPerOp {
				prev.AllocsPerOp = b.AllocsPerOp
			}
			best[b.Name] = prev
		}
		confirmed := make([]result, 0, len(best))
		seen := map[string]bool{}
		for _, r := range regressions {
			if !seen[r.res.Name] {
				seen[r.res.Name] = true
				confirmed = append(confirmed, best[r.res.Name])
			}
		}
		regressions = findRegressions(confirmed, baseBy, maxRatio, maxAllocRatio)
	}
	if len(regressions) > 0 {
		msg := fmt.Sprintf("%d measurement(s) regressed vs %s (limits: %.1fx ns/op, %.1fx allocs/op):",
			len(regressions), path, maxRatio, maxAllocRatio)
		for _, r := range regressions {
			msg += "\n  " + r.String()
		}
		return errors.New(msg)
	}
	fmt.Printf("baseline gate passed: within %.1fx ns/op and %.1fx allocs/op of %s\n", maxRatio, maxAllocRatio, path)
	return nil
}

// findRegressions compares fresh results against the baseline on ns/op and
// (when maxAllocRatio > 0) allocs/op.
func findRegressions(fresh []result, baseBy map[string]result, maxRatio, maxAllocRatio float64) []regression {
	var out []regression
	for _, b := range fresh {
		old, ok := baseBy[b.Name]
		if !ok {
			fmt.Printf("  (no baseline for %s; skipped by the gate)\n", b.Name)
			continue
		}
		if old.NsPerOp > 0 && b.NsPerOp/old.NsPerOp > maxRatio {
			out = append(out, regression{res: b, unit: "ns/op", fresh: b.NsPerOp, base: old.NsPerOp})
		}
		if maxAllocRatio > 0 && old.AllocsPerOp > 0 && b.AllocsPerOp/old.AllocsPerOp > maxAllocRatio {
			out = append(out, regression{res: b, unit: "allocs/op", fresh: b.AllocsPerOp, base: old.AllocsPerOp})
		}
	}
	return out
}

// runBench executes one `go test -bench` invocation at GOMAXPROCS=cpuN
// and parses its output.
func runBench(t trackedBench, benchtime string, cpuN int) ([]result, string, error) {
	args := []string{"test", "-run", "^$", "-cpu", strconv.Itoa(cpuN),
		"-bench", t.Bench, "-benchmem", "-benchtime", benchtime}
	cmd := exec.Command("go", append(args, t.Pkg)...)
	cmd.Stderr = os.Stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	var results []result
	var cpu string
	sc := bufio.NewScanner(outPipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = rest
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		r := result{Name: m[1], Package: t.Pkg, Iterations: iters}
		parseMeasurements(m[3], &r)
		results = append(results, r)
	}
	if err := cmd.Wait(); err != nil {
		return nil, "", fmt.Errorf("go test -bench %q: %w", t.Bench, err)
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	return results, cpu, nil
}

// parseMeasurements splits the "<value> <unit> <value> <unit> ..." tail of a
// benchmark line into the well-known fields plus custom metrics.
func parseMeasurements(tail string, r *result) {
	fields := strings.Fields(tail)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
}
