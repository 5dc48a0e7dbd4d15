// Command perfbench is the repository's end-to-end benchmark. One command
// runs either of two closed-loop workloads against the code checked out
// next to it and prints every metric by name, unit and sample count,
// followed by one JSON result line:
//
//	bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// repeats the workload with spans recorded around every call the
// benchmark makes into a layer's public functions and reports the
// per-layer metrics instead. Output checks (an outcome for every claim,
// identical verdict digests, state surviving a daemon crash) fail the
// command. See NOTES.md for the workloads, the layer map and the
// environment the bounds were set on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/crowd"
)

const (
	// clients is the closed-loop client count of every workload: the
	// benchmark box has two CPUs, and more clients than cores only
	// measures the scheduler.
	clients = 2
	// teamSize is the simulated crowd: three checkers per screen, as in
	// the paper's experiments.
	teamSize = 3
	// crowdSeed fixes the simulated checkers (their speeds and accuracies)
	// across seeds: the seed varies the documents, not the people, whose
	// speed would otherwise swing crowd seconds per claim by a quarter.
	crowdSeed = 1
)

// newCrowdTeam builds the simulated checkers every in-process run and
// every session client uses, with the accuracy Verifier.NewTeam gives.
func newCrowdTeam() (*scrutinizer.Team, error) {
	return crowd.NewTeam("W", teamSize, 0.97, crowdSeed)
}

var bgCtx = context.Background()

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // scrutinizerd binary built from the checkout
	outDir   string // traces, digests and daemon state, inside the checkout
}

type workload struct {
	name string
	run  func(o options, rep *report) error
}

var workloads = []workload{
	{"paper-batch", runPaperBatch},
	{"tenant-churn", runTenantChurn},
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "paper-batch or tenant-churn")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same worlds")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured duration; the daemon workloads size their fixed work from it")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "scrutinizerd binary (built by run.sh)")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for traces, digests and scratch state")
	flag.Parse()
	o.trace = traceFlag == 1

	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper-batch|tenant-churn, --seconds > 0 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// A daemon left behind would outlive the run: stop them on every exit
	// path, signals included.
	defer killAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.Exit(1)
	}()

	printEnv(o)
	rep := newReport()
	if err := wl.run(o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return rep.print(o)
}

func printEnv(o options) {
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("env: %s %s/%s nproc=%d GOMAXPROCS=%d\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// metricValue is one figure as it appears in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reported struct {
	name  string
	unit  string
	value float64
	n     int    // samples behind the figure
	note  string // how it was measured, for the table
}

type check struct {
	name   string
	ok     bool
	detail string
}

// report collects one invocation's figures and output checks.
type report struct {
	metrics   map[string]reported
	checks    []check
	passes    map[string]int // repeated checks that passed, by name
	attempted int
	failed    int
}

func newReport() *report {
	return &report{metrics: map[string]reported{}, passes: map[string]int{}}
}

func (r *report) set(name string, value float64, n int, note string) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = reported{name: name, unit: unit, value: value, n: n, note: note}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// passed counts one more pass of a check repeated per run or session;
// failures are reported individually through check.
func (r *report) passed(name string) { r.passes[name]++ }

func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// print writes the table and the result line and returns the exit code:
// a failed check or a failed operation fails the command.
func (r *report) print(o options) int {
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("metrics:")
	for _, name := range names {
		m := r.metrics[name]
		fmt.Printf("  %-36s %14.6g %-6s n=%-6d %s\n", name, m.value, m.unit, m.n, m.note)
	}
	correct := r.failed == 0
	fmt.Println("checks:")
	passNames := make([]string, 0, len(r.passes))
	for name := range r.passes {
		passNames = append(passNames, name)
	}
	sort.Strings(passNames)
	for _, name := range passNames {
		fmt.Printf("  ok   %-28s passed %d times\n", name, r.passes[name])
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Printf("  %s %-28s %s\n", status, c.name, c.detail)
	}
	fmt.Printf("operations: attempted=%d failed=%d failed_ops_frac=%g\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))

	out := map[string]metricValue{}
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		out[d.name] = metricValue{Value: m.value, Unit: d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// workDir makes a fresh scratch directory for one invocation under the
// output directory; the caller removes it.
func workDir(o options) (string, error) {
	dir, err := os.MkdirTemp(o.outDir, o.workload+"-")
	if err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return filepath.Abs(dir)
}
