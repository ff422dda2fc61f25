package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/value"
	"repro/tetra"
)

func TestMain(m *testing.M) {
	// The smoke runs boot worker pools that re-exec this test binary.
	tetra.ExitIfWorker()
	os.Exit(m.Run())
}

// TestLagCheck: an open loop that sends each request a steady few
// milliseconds late is valid; one whose lateness keeps growing is not.
func TestLagCheck(t *testing.T) {
	interval := 4 * time.Millisecond
	phase := func(lag func(i int) time.Duration) []outcome {
		outs := make([]outcome, 200)
		t0 := time.Now()
		for i := range outs {
			due := t0.Add(time.Duration(i) * interval)
			outs[i] = outcome{due: due, start: due.Add(lag(i))}
		}
		return outs
	}
	if _, err := lagCheck(phase(func(i int) time.Duration { return time.Duration(i%7) * time.Millisecond }), interval); err != nil {
		t.Errorf("steady lag reported invalid: %v", err)
	}
	if _, err := lagCheck(phase(func(i int) time.Duration { return time.Duration(i) * time.Millisecond }), interval); err == nil {
		t.Error("growing lag not reported")
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 300; i++ {
		a, b := genSubmission(42, i), genSubmission(42, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("submission %d differs between two draws with the same seed", i)
		}
		if seen[a.Source] {
			t.Fatalf("submission %d repeats an earlier source", i)
		}
		seen[a.Source] = true
	}
	if reflect.DeepEqual(genSubmission(1, 0), genSubmission(2, 0)) {
		t.Fatal("different seeds gave the same submission")
	}
}

// TestGeneratorAgreesWithBackends checks the generator, not the runtime:
// on a sample, its Go-computed expectations match what the interpreter
// and the VM at -O0 and -O2 print, including the error stage and
// position of the submissions built to fail.
func TestGeneratorAgreesWithBackends(t *testing.T) {
	stages := make(map[string]int)
	for i := 0; i < 400; i++ {
		s := genSubmission(7, i)
		stages[s.ErrStage]++
		prog, err := core.Compile(s.File, s.Source)
		if s.ErrStage == "compile" {
			if err == nil || !strings.HasPrefix(err.Error(), s.ErrPos+":") {
				t.Fatalf("submission %d: want a compile error at %s, got %v\n%s", i, s.ErrPos, err, s.Source)
			}
			continue
		}
		if err != nil {
			t.Fatalf("submission %d: %v\n%s", i, err, s.Source)
		}
		run := func(name string, f func(core.Config) error) {
			var out bytes.Buffer
			err := f(core.Config{Stdin: strings.NewReader(s.Stdin), Stdout: &out, Limits: tetra.SandboxLimits()})
			if out.String() != s.Stdout {
				t.Fatalf("submission %d on %s: stdout %q, want %q\n%s", i, name, out.String(), s.Stdout, s.Source)
			}
			switch {
			case s.ErrStage == "" && err != nil:
				t.Fatalf("submission %d on %s: %v", i, name, err)
			case s.ErrStage == "runtime":
				var re *value.RuntimeError
				if !errors.As(err, &re) || re.Pos != s.ErrPos {
					t.Fatalf("submission %d on %s: want a runtime error at %s, got %v", i, name, s.ErrPos, err)
				}
			}
		}
		run("interp", func(c core.Config) error { return core.Run(prog, c) })
		for _, level := range []int{bytecode.O0, bytecode.O2} {
			bc, err := core.CompileBytecodeOpt(prog, level)
			if err != nil {
				t.Fatal(err)
			}
			run(fmt.Sprintf("vm -O%d", level), func(c core.Config) error { return core.NewVM(bc, c).Run() })
		}
	}
	if stages["compile"] == 0 || stages["runtime"] == 0 {
		t.Fatalf("sample has no error cases: %v", stages)
	}
}

func TestKernelsAgreeWithNativeTwins(t *testing.T) {
	for _, k := range kernels() {
		want := k.native(1)
		if got := k.native(3); got != want {
			t.Fatalf("%s: native Go gives %q at 3 goroutines, %q at 1", k.name, got, want)
		}
		prog, err := tetra.Compile(k.name+".ttr", k.source)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := prog.RunVM(tetra.Config{Stdout: &out, Sched: tetra.Sched{Workers: 2}}); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			t.Fatalf("%s: VM printed %q, native Go %q", k.name, out.String(), want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables
// and workload rates in this package.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, want %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		rate := map[string]int{"serve-hot": hotRate, "serve-cold": coldRate}[w.Name]
		if rate > 0 && !strings.Contains(w.Why, fmt.Sprintf("%d req/s", rate)) {
			t.Errorf("%s: rationale does not name its open-loop rate %d req/s: %q", w.Name, rate, w.Why)
		}
	}
}

// TestSmoke runs every workload briefly from the repository root, as the
// benchmark command does, and expects a correct result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving fleet and builds native artifacts")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, tc := range []struct {
		workload string
		trace    int
	}{{"serve-hot", 0}, {"serve-cold", 0}, {"serve-cold", 1}, {"parallel-compute", 0}} {
		t.Run(fmt.Sprintf("%s/trace=%d", tc.workload, tc.trace), func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", tc.workload, "--seed", "3", "--seconds", "1",
				"--trace", fmt.Sprint(tc.trace)}, &out, &errOut)
			if code != 0 {
				t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if tc.trace == 1 {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Fatalf("result %+v", res)
			}
		})
	}
}
