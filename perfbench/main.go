// Command perfbench is the repository benchmark. One invocation boots the
// system through its public entry points, drives one workload from a
// single process, checks every output against an oracle that is not the
// backend under test, and prints every metric by name with its unit. The
// last line of standard output is the machine-readable result.
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - serve-hot: POST /run through tetrarouter → two tetrad replicas;
//     Zipf-popular golden programs, all promoted to the native tier.
//   - serve-cold: the same topology; every request is a distinct
//     generated submission, so every request compiles.
//   - parallel-compute: the paper's parallel programs in process through
//     the tetra facade, at 1 and nproc workers, beside native-Go twins.
//
// Every end-to-end metric is measured on every workload. A "request" is
// one POST /run on the serve workloads and one program run at nproc
// workers on parallel-compute. The serve workloads measure in rounds
// that interleave a closed loop with one client, a closed loop with
// nproc clients, the open loop at the workload's fixed rate and one
// native-Go ceiling sample; parallel-compute measures in rounds of every
// program on every backend at 1 and nproc workers.
//
//   - throughput_rps: serve: replies checked correct per second with
//     nproc closed-loop clients, median over rounds; compute: runs per
//     second at nproc workers.
//   - latency_p50_ms, latency_p99_ms: serve: open loop, timed from when
//     each request was due; the pooled median, and the median over rounds
//     of each round's p99. Compute: the median run at nproc workers, and
//     the geometric mean over program × backend of each one's p99.
//   - run_s: geometric mean over request groups (serve: mode; compute:
//     program × backend) of the group's median request time at
//     nproc-way concurrency.
//   - speedup: serve: nproc-client over one-client throughput, median
//     over rounds; compute: geometric mean of T(1 worker)/T(nproc).
//   - ceiling_frac: speedup over the native-Go speedup of the compute
//     kernels on the same host at the same time (serve: per round).
//   - setup_s: median over several set-ups in one run of boot to steady
//     state (serve-hot: including every native promotion build).
//   - peak_rss_mb: RSS of this process plus its children, sampled from
//     /proc every 25 ms while the workload is measured; the median over
//     one-second windows of each window's peak (the single peak is
//     printed beside it).
//
// The error rate is failed/attempted in the result line; any failure
// also makes the command exit non-zero.
//
// With --trace 1 the run records spans around every layer boundary it
// can see from outside the program (handler wrappers around the router
// and each tetrad, the client, and direct timed calls into each
// pipeline stage), prints the self-time table, and reports the per-layer
// metrics instead. Layers a workload never reaches report 0.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/tetra"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric tables BENCHMARK.json lists, in
// order; a test keeps the two in step.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"run_s", "s"},
	{"speedup", "x"},
	{"ceiling_frac", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"router.self_us_p50", "us"},
	{"router.affinity_frac", "ratio"},
	{"router.retries", "count"},
	{"router.spillovers", "count"},
	{"server.self_us_p50", "us"},
	{"server.rejected", "count"},
	{"worker.overhead_us_p50", "us"},
	{"worker.crashes", "count"},
	{"worker.retries", "count"},
	{"native.share", "ratio"},
	{"native.dispatch_us_p50", "us"},
	{"promote.builds_per_program", "ratio"},
	{"promote.ready_s", "s"},
	{"gogen.generate_us", "us"},
	{"core.hit_frac", "ratio"},
	{"core.hit_us", "us"},
	{"core.miss_us", "us"},
	{"lexer.us", "us"},
	{"lexer.tokens", "count"},
	{"parser.us", "us"},
	{"check.us", "us"},
	{"bytecode.compile_us", "us"},
	{"bytecode.optimize_us", "us"},
	{"bytecode.instrs_o0", "count"},
	{"bytecode.instrs_o2", "count"},
	{"interp.run_s_1w", "s"},
	{"interp.run_s_nw", "s"},
	{"interp.work_imbalance", "ratio"},
	{"vm.run_s_1w", "s"},
	{"vm.run_s_nw", "s"},
	{"vm.exec_us_p50", "us"},
	{"guard.overhead_frac", "ratio"},
	{"trace.extra_us_p50", "us"},
	{"native_go.speedup", "x"},
	{"loadgen.lag_p99_ms", "ms"},
	{"tracing.overhead_frac", "ratio"},
}

var workloads = []string{"serve-hot", "serve-cold", "parallel-compute"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	nproc    int
}

// runResult is what one workload measured.
type runResult struct {
	metrics           map[string]float64
	attempted, failed int64
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	// Pooled execution workers are re-execs of this binary.
	tetra.ExitIfWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	o := options{}
	flags.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flags.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flags.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := flags.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 || o.seconds < 1 || flags.NArg() != 0 || !slices.Contains(workloads, o.workload) {
		fmt.Fprintf(stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloads, "|"))
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.root = wd
	o.nproc = runtime.NumCPU()

	var res *runResult
	header(stdout, o)
	if o.workload == "parallel-compute" {
		res, err = runCompute(o, stdout)
	} else {
		res, err = runServe(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricOut)}
	fmt.Fprintf(stdout, "# error_rate %.6f (%d failed of %d attempted)\n",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "# %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct || res.attempted < 1 {
		return 1
	}
	return 0
}

// header prints the run's provenance, so numbers from different hosts
// or trees are never compared unknowingly.
func header(w io.Writer, o options) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d go=%s %s/%s\n", o.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# source git=%s tree=%s\n", gitCommit(o.root), treeHash(o.root))
}

// gitCommit reads the checked-out commit from root/.git without running
// git, so nothing outside the tree is consulted; "none" where root is
// not a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	short := func(sha string) string { return sha[:min(12, len(sha))] }
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return short(strings.TrimSpace(string(head)))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return short(strings.TrimSpace(string(b)))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return short(sha)
		}
	}
	return "none"
}

// treeHash fingerprints the Go sources and golden programs under root,
// identifying the code measured where no git metadata exists.
func treeHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(p); ext == ".go" || ext == ".ttr" || ext == ".out" || ext == ".in" || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
