package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/promote"
)

// Open-loop arrival rates (requests per second), fixed per workload and
// set well below the closed-loop capacity measured at the commit that
// introduced the benchmark (2 vCPUs). BENCHMARK.json names them in each
// workload's rationale.
const (
	hotRate  = 170
	coldRate = 250
)

// golden is one program of the repository's golden corpus with its
// expected output: serve-hot's oracle.
type golden struct {
	name, file, src, stdin, out string
}

// loadGoldens reads the golden corpus, leaving out programs that call
// sleep: serve-hot measures the serving layers around tiny programs, and
// a program that sleeps holds an execution slot idle for its whole
// sleep.

func loadGoldens(root string) ([]golden, error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "programs", "*.ttr"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no golden programs under %s", filepath.Join(root, "testdata", "programs"))
	}
	sort.Strings(paths)
	var gs []golden
	for _, p := range paths {
		base := strings.TrimSuffix(p, ".ttr")
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out, err := os.ReadFile(base + ".out")
		if err != nil {
			return nil, err
		}
		in, err := os.ReadFile(base + ".in")
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		name := filepath.Base(base)
		if strings.Contains(string(src), "sleep(") {
			continue
		}
		gs = append(gs, golden{name: name, file: name + ".ttr", src: string(src), stdin: string(in), out: string(out)})
	}
	return gs, nil
}

func checkGolden(g golden, mode string) func(*reply) error {
	return func(r *reply) error {
		if r.Error != nil || !r.OK {
			return fmt.Errorf("%s: unexpected error: %+v", g.name, r.Error)
		}
		if r.Stdout != g.out {
			return fmt.Errorf("%s: stdout differs from the golden output", g.name)
		}
		if mode == "trace" && len(r.Trace) == 0 {
			return fmt.Errorf("%s: trace requested but the reply has no trace summary", g.name)
		}
		return nil
	}
}

func checkSubmission(s submission) func(*reply) error {
	return func(r *reply) error {
		switch s.ErrStage {
		case "":
			if r.Error != nil || !r.OK {
				return fmt.Errorf("unexpected error: %+v", r.Error)
			}
		case "compile":
			if r.Error == nil || r.Error.Stage != "compile" || !strings.HasPrefix(r.Error.Message, s.ErrPos+":") {
				return fmt.Errorf("want a compile error at %s, got %+v", s.ErrPos, r.Error)
			}
		case "runtime":
			if r.Error == nil || r.Error.Stage != "runtime" || r.Error.Pos != s.ErrPos {
				return fmt.Errorf("want a runtime error at %s, got %+v", s.ErrPos, r.Error)
			}
		}
		if r.Stdout != s.Stdout {
			return fmt.Errorf("stdout %q, want %q", r.Stdout, s.Stdout)
		}
		return nil
	}
}

func phaseHash(phase string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(phase))
	return h.Sum64()
}

// mix is a splitmix64 step: a cheap deterministic draw from (seed, i).
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// serveLoad is what distinguishes serve-hot from serve-cold: how the
// fleet is brought to steady state, and what the next request is.
type serveLoad interface {
	// warm brings a freshly booted fleet to steady state.
	warm(f *fleet, setup int) error
	// closed returns the request generator for one closed-loop client.
	closed(phase string, client int) func() *request
	// open returns request i of the open loop.
	open(i int) *request
	rate() float64
	probeInputs() []probeInput
	describe() string
}

// hotLoad: a few reference programs, Zipf-popular, every one promoted
// to the native tier during set-up.
type hotLoad struct {
	seed  int64
	nproc int
	gs    []golden
	rank  []int               // popularity rank → golden index (fixed, not seeded)
	reqs  map[[2]int]*request // (golden, mode) → request
}

// zipfS is the popularity skew: an assumption (the value tetrabench's
// cluster experiment uses), not a rate measured on autograder traffic.
const zipfS = 1.1

func newHotLoad(root string, seed int64, nproc int) (*hotLoad, error) {
	gs, err := loadGoldens(root)
	if err != nil {
		return nil, err
	}
	h := &hotLoad{seed: seed, nproc: nproc, gs: gs, rank: rand.New(rand.NewSource(7)).Perm(len(gs)),
		reqs: make(map[[2]int]*request)}
	for i, g := range gs {
		for m, mode := range modes {
			h.reqs[[2]int{i, m}] = newRequest("golden", g.name, mode, g.file, g.src, g.stdin, checkGolden(g, mode))
		}
	}
	return h, nil
}

func (h *hotLoad) rate() float64 { return hotRate }

func (h *hotLoad) describe() string {
	return fmt.Sprintf("corpus=%d goldens zipf_s=%.1f popularity=fixed modes=interp/vm-O0/vm-O2 (+10%% trace/race) native_threshold=%d open_rate=%d/s",
		len(h.gs), zipfS, nativeThreshold, hotRate)
}

func (h *hotLoad) pick(r *rand.Rand, z *rand.Zipf) *request {
	g := h.rank[z.Uint64()]
	mode := drawMode(r.Intn(20))
	for m, name := range modes {
		if name == mode {
			return h.reqs[[2]int{g, m}]
		}
	}
	panic("unknown mode " + mode)
}

func (h *hotLoad) closed(phase string, client int) func() *request {
	r := rand.New(rand.NewSource(int64(mix(h.seed^int64(phaseHash(phase)), client))))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(h.gs)-1))
	return func() *request { return h.pick(r, z) }
}

func (h *hotLoad) open(i int) *request {
	r := rand.New(rand.NewSource(int64(mix(h.seed, 1_000_000+i))))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(h.gs)-1))
	return h.pick(r, z)
}

// warm sends every program past the promotion threshold in every mode
// (program by program, so early builds overlap later warm-up) and waits
// until each replica has promoted, or pinned to the VM, every program it
// saw.
func (h *hotLoad) warm(f *fleet, setup int) error {
	var reqs []*request
	for i := range h.gs {
		for m := range modes {
			n := nativeThreshold
			if modes[m] == "trace" || modes[m] == "race" {
				n = 1 // never promoted; one request warms the worker path
			}
			for k := 0; k < n; k++ {
				reqs = append(reqs, h.reqs[[2]int{i, m}])
			}
		}
	}
	f.sendAll("warm", reqs, h.nproc)
	deadline := time.Now().Add(120 * time.Second)
	for {
		steady := true
		for _, s := range f.servers {
			st := s.Promoter().Stats()
			if st.Tracked == 0 || st.Ready+st.Pinned < st.Tracked {
				steady = false
			}
			if st.BuildFailures > 0 {
				return fmt.Errorf("native build failed during set-up: %+v", st)
			}
		}
		if steady {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("programs not promoted within 120s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (h *hotLoad) probeInputs() []probeInput {
	var in []probeInput
	for _, g := range h.gs {
		in = append(in, probeInput{name: g.name, file: g.file, src: g.src, stdin: g.stdin})
	}
	return in
}

// coldLoad: every request is a distinct generated submission.
type coldLoad struct {
	seed  int64
	nproc int
	next  atomic.Int64
}

func (c *coldLoad) rate() float64 { return coldRate }

func (c *coldLoad) describe() string {
	return fmt.Sprintf("generated submissions, all distinct: 3-5 of %d features, %d%% runtime + %d%% compile errors, modes=interp/vm-O0/vm-O2 (+10%% trace/race) open_rate=%d/s",
		len(features), shareRuntimeIndex+shareRuntimeDiv, shareCompile, coldRate)
}

func (c *coldLoad) request(idx int) *request {
	s := genSubmission(c.seed, idx)
	return newRequest("submission", s.Template, drawMode(int(mix(c.seed, idx)%20)), s.File, s.Source, s.Stdin, checkSubmission(s))
}

func (c *coldLoad) closed(phase string, client int) func() *request {
	return func() *request { return c.request(int(c.next.Add(1))) }
}

// open draws from an index range no closed-loop phase reaches.
func (c *coldLoad) open(i int) *request { return c.request(50_000_000 + i) }

// warm sends a few distinct submissions through each client connection,
// from an index range of its own per set-up.
func (c *coldLoad) warm(f *fleet, setup int) error {
	var reqs []*request
	for i := 0; i < 10*c.nproc; i++ {
		reqs = append(reqs, c.request(90_000_000+setup*1000+i))
	}
	f.sendAll("warm", reqs, c.nproc)
	return nil
}

func (c *coldLoad) probeInputs() []probeInput {
	var in []probeInput
	for i := 0; len(in) < 40; i++ {
		s := genSubmission(c.seed, 80_000_000+i)
		if s.ErrStage == "" {
			in = append(in, probeInput{name: s.Template, file: s.File, src: s.Source, stdin: s.Stdin})
		}
	}
	return in
}

// sendAll sends every request once, from clients goroutines.
func (f *fleet) sendAll(phase string, reqs []*request, clients int) {
	var cursor atomic.Int64
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				f.send(phase, reqs[i], time.Time{})
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-done
	}
}

// primeToolchain builds one trivial native artifact before any timed
// set-up, so the Go build cache holds the native runtime and every
// set-up pays the same build costs.
func primeToolchain(dir string) error {
	defer os.RemoveAll(dir)
	m := promote.New(promote.Config{Threshold: 1, BuildDir: dir})
	defer m.Close()
	if !m.Enabled() {
		return fmt.Errorf("native tier unavailable: no Go toolchain or module root")
	}
	const file, src = "prime.ttr", "def main():\n    print(1)\n"
	m.Observe(file, src)
	deadline := time.Now().Add(10 * time.Minute)
	for {
		if _, ok := m.Artifact(file, src); ok {
			return nil
		}
		if st := m.Stats(); st.BuildFailures+st.CompileFailures > 0 {
			return fmt.Errorf("priming native build failed: %+v", st)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("priming native build timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
