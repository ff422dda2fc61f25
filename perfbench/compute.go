package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/tetra"
)

// compiled is one parallel-compute kernel ready to run.
type compiled struct {
	k     kernel
	prog  *tetra.Program
	want  string
	batch int // native calls per timed sample
}

// run executes the kernel through the facade under the sandbox limits
// (the governed path tetrad and `tetra -sandbox` use) and checks its
// output against the native-Go result.
func (c *compiled) run(backend string, workers int) (time.Duration, error) {
	var out bytes.Buffer
	cfg := tetra.Config{Stdout: &out, Limits: tetra.SandboxLimits(), Sched: tetra.Sched{Workers: workers}}
	start := time.Now()
	var err error
	if backend == "vm" {
		err = c.prog.RunVM(cfg)
	} else {
		err = c.prog.Run(cfg)
	}
	d := time.Since(start)
	if err == nil && out.String() != c.want {
		err = fmt.Errorf("%s on %s at %d workers printed %q, native Go %q", c.k.name, backend, workers, out.String(), c.want)
	}
	return d, err
}

// runNative times one batch of the native-Go twin and checks its result.
func (c *compiled) runNative(workers int) (time.Duration, error) {
	start := time.Now()
	var got string
	for i := 0; i < c.batch; i++ {
		got = c.k.native(workers)
	}
	d := time.Since(start) / time.Duration(c.batch)
	if got != c.want {
		return d, fmt.Errorf("%s native Go at %d goroutines gave %q, want %q", c.k.name, workers, got, c.want)
	}
	return d, nil
}

// calibrate sizes the native batch so one timed sample lasts at least
// 20ms at one goroutine: a single native run is far shorter than timer
// and scheduler noise.
func (c *compiled) calibrate() {
	c.batch = 1
	d, _ := c.runNative(1)
	if d > 0 {
		c.batch = max(1, int(20*time.Millisecond/d))
	}
}

// setupCompute compiles every kernel through a fresh compile cache,
// computes the oracle, and runs each once per backend.
func setupCompute(n int) ([]*compiled, error) {
	cache := tetra.NewCompileCache(0)
	var cs []*compiled
	for _, k := range kernels() {
		prog, err := tetra.CompileWithOptions(k.name+".ttr", k.source, tetra.CompileOptions{Cache: cache})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		c := &compiled{k: k, prog: prog, want: k.native(n)}
		if one := k.native(1); one != c.want {
			return nil, fmt.Errorf("%s: native Go gives %q at 1 goroutine, %q at %d", k.name, one, c.want, n)
		}
		for _, b := range []string{"interp", "vm"} {
			if _, err := c.run(b, n); err != nil {
				return nil, err
			}
		}
		c.calibrate()
		cs = append(cs, c)
	}
	return cs, nil
}

// sample is one timed run in the measurement rounds.
type sample struct {
	kernel, backend string // backend: interp, vm or native
	workers         int
	d               time.Duration
}

// computeRounds runs every (kernel, backend, workers) once per round, in
// an order shuffled from the seed, until dur has passed.
func computeRounds(cs []*compiled, n int, seed int64, dur time.Duration, rec *recorder) ([]sample, int64, int64, error) {
	type item struct {
		c       *compiled
		backend string
		workers int
	}
	var items []item
	for _, c := range cs {
		for _, b := range []string{"interp", "vm", "native"} {
			items = append(items, item{c, b, 1}, item{c, b, n})
		}
	}
	r := rand.New(rand.NewSource(seed))
	var out []sample
	var attempted, failed int64
	deadline := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		for _, it := range items {
			// Each run starts from a collected heap, so no run pays for
			// the previous run's garbage.
			runtime.GC()
			var d, start time.Duration
			var err error
			if rec.on() {
				start = rec.now()
			}
			if it.backend == "native" {
				d, err = it.c.runNative(it.workers)
			} else {
				d, err = it.c.run(it.backend, it.workers)
				attempted++
			}
			if rec.on() {
				rec.add(span{Name: it.backend, ReqID: fmt.Sprintf("%s/%d", it.c.k.name, it.workers), Start: start, End: rec.now(),
					Labels: map[string]string{"program": it.c.k.name}, Attrs: map[string]float64{"workers": float64(it.workers)}})
			}
			if err != nil {
				if it.backend != "native" {
					failed++
				}
				return out, attempted, failed, err
			}
			out = append(out, sample{it.c.k.name, it.backend, it.workers, d})
		}
	}
	return out, attempted, failed, nil
}

// summary reduces samples to per-(kernel, backend) medians at 1 and n
// workers.
type summary struct {
	med1, medN map[[2]string]float64 // (kernel, backend) → seconds
	nwRuns     []float64             // every Tetra run at n workers, seconds
	// tailN is the geometric mean over (kernel, Tetra backend) of each
	// one's p99 at n workers: the runs of different programs differ too
	// much for one pooled tail, which would only ever be the slowest
	// program's worst run.
	tailN float64
}

func summarize(ss []sample, n int) summary {
	t1 := make(map[[2]string][]float64)
	tn := make(map[[2]string][]float64)
	s := summary{med1: make(map[[2]string]float64), medN: make(map[[2]string]float64)}
	for _, x := range ss {
		key := [2]string{x.kernel, x.backend}
		if x.workers == 1 {
			t1[key] = append(t1[key], x.d.Seconds())
		}
		if x.workers == n {
			tn[key] = append(tn[key], x.d.Seconds())
			if x.backend != "native" {
				s.nwRuns = append(s.nwRuns, x.d.Seconds())
			}
		}
	}
	for k, v := range t1 {
		s.med1[k] = median(v)
	}
	var tails []float64
	for k, v := range tn {
		s.medN[k] = median(v)
		if k[1] != "native" {
			tails = append(tails, quantile(v, 0.99))
		}
	}
	s.tailN = geomean(tails)
	return s
}

// geomeans returns, over kernels, the geometric mean of the
// median time at 1 and at n workers and of the speedup, for the given
// backends.
func (s summary) geomeans(backends ...string) (t1, tn, speedup float64) {
	var a, b, c []float64
	for k, v := range s.medN {
		for _, be := range backends {
			if k[1] == be {
				a = append(a, s.med1[k])
				b = append(b, v)
				c = append(c, s.med1[k]/v)
			}
		}
	}
	return geomean(a), geomean(b), geomean(c)
}

// runCompute measures parallel-compute: the measured seconds are rounds
// of every kernel on the interpreter, the VM and native Go, each at 1 and
// nproc workers. Traced, the first half is the untraced reference and the
// second half records a span per run, followed by the layer probes.
func runCompute(o options, w io.Writer) (*runResult, error) {
	n := o.nproc
	fmt.Fprintf(w, "# workload primes(limit=%d, %d chunks) tsp(%d cities) mandelbrot(%dx%d, cap %d); backends interp, vm -O2, native Go; workers 1 and %d; sandbox limits\n",
		primesLimit, primesChunks, tspCities, mandelW, mandelH, mandelCap, n)
	setups := computeSetups
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		setups = 1
	}
	var cs []*compiled
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		start := time.Now()
		var err error
		if cs, err = setupCompute(n); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	fmt.Fprintf(w, "# setup_s samples %.3f\n", setupTimes)
	S := time.Duration(o.seconds) * time.Second
	m := map[string]float64{"setup_s": median(setupTimes)}

	// One untimed round first: the first run of each (kernel, backend,
	// workers) in a fresh process is an outlier that would otherwise set
	// the tail.
	if _, a, f, err := computeRounds(cs, n, o.seed, 0, nil); err != nil {
		return &runResult{metrics: m, attempted: a, failed: f}, err
	}
	if !o.trace {
		rss := startRSS(25 * time.Millisecond)
		ss, attempted, failed, err := computeRounds(cs, n, o.seed, S, nil)
		var rssPeak float64
		m["peak_rss_mb"], rssPeak = rss.Stop()
		fmt.Fprintf(w, "# peak_rss_mb %.1f (median of one-second window peaks; single peak %.1f)\n", m["peak_rss_mb"], rssPeak)
		if err != nil {
			return &runResult{metrics: m, attempted: attempted, failed: failed}, err
		}
		s := summarize(ss, n)
		_, tn, speedup := s.geomeans("interp", "vm")
		_, _, native := s.geomeans("native")
		m["run_s"] = tn
		m["speedup"] = speedup
		m["ceiling_frac"] = speedup / native
		m["throughput_rps"] = float64(len(s.nwRuns)) / sum(s.nwRuns)
		m["latency_p50_ms"] = 1000 * quantile(s.nwRuns, 0.50)
		m["latency_p99_ms"] = 1000 * s.tailN
		fmt.Fprintf(w, "# %d runs at %d workers; native-Go speedup %.3f\n", len(s.nwRuns), n, native)
		printComputeTable(w, s, n)
		return &runResult{metrics: m, attempted: attempted, failed: failed}, nil
	}

	ref, a1, f1, err := computeRounds(cs, n, o.seed, S/2, nil)
	if err != nil {
		return &runResult{metrics: m, attempted: a1, failed: f1}, err
	}
	rec.enabled.Store(true)
	traced, a2, f2, err := computeRounds(cs, n, o.seed+1, S/2, rec)
	rec.enabled.Store(false)
	if err != nil {
		return &runResult{metrics: m, attempted: a1 + a2, failed: f1 + f2}, err
	}
	sRef, s := summarize(ref, n), summarize(traced, n)
	_, tnRef, _ := sRef.geomeans("interp", "vm")
	_, tn, _ := s.geomeans("interp", "vm")
	m["tracing.overhead_frac"] = (tn - tnRef) / tnRef
	m["interp.run_s_1w"], m["interp.run_s_nw"], _ = s.geomeans("interp")
	m["vm.run_s_1w"], m["vm.run_s_nw"], _ = s.geomeans("vm")
	_, _, m["native_go.speedup"] = s.geomeans("native")
	for _, k := range []string{"router.self_us_p50", "router.affinity_frac", "router.retries", "router.spillovers",
		"server.self_us_p50", "server.rejected", "worker.crashes", "worker.retries", "native.share",
		"native.dispatch_us_p50", "promote.builds_per_program", "promote.ready_s", "core.hit_frac",
		"vm.exec_us_p50", "trace.extra_us_p50", "loadgen.lag_p99_ms"} {
		m[k] = 0 // no serving layer runs in this workload
	}
	rows := make(map[string][]float64)
	for _, x := range traced {
		rows[x.backend] = append(rows[x.backend], us(x.d))
	}
	printSelfTable(w, fmt.Sprintf("compute path, %d traced runs", len(traced)), []selfRow{
		{"interp", rows["interp"]}, {"vm", rows["vm"]}, {"native Go", rows["native"]},
	})
	printComputeTable(w, s, n)

	var inputs []probeInput
	for _, c := range cs {
		inputs = append(inputs, probeInput{name: c.k.name, file: c.k.name + ".ttr", src: c.k.source})
	}
	rec.enabled.Store(true)
	err = probeLayers(o, w, rec, inputs, m)
	rec.enabled.Store(false)
	if err != nil {
		return nil, err
	}
	path := spansPath(o)
	if err := rec.dump(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# spans written to %s\n", path)
	return &runResult{metrics: m, attempted: a1 + a2, failed: f1 + f2}, nil
}

func printComputeTable(w io.Writer, s summary, n int) {
	fmt.Fprintf(w, "#   %-12s %-7s %12s %12s %8s\n", "program", "backend", "T(1) ms", fmt.Sprintf("T(%d) ms", n), "speedup")
	for _, k := range kernels() {
		for _, b := range []string{"interp", "vm", "native"} {
			key := [2]string{k.name, b}
			fmt.Fprintf(w, "#   %-12s %-7s %12.3f %12.3f %8.3f\n", k.name, b, 1000*s.med1[key], 1000*s.medN[key], s.med1[key]/s.medN[key])
		}
	}
}
