package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bytecode"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/gogen"
	"repro/internal/guard"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/sched"
	"repro/internal/worker"
)

// probeInput is one program of the workload, fed to the direct layer
// probes.
type probeInput struct{ name, file, src, stdin string }

const probeReps = 5

// probeLayers times direct calls into each pipeline layer on the
// workload's own inputs: lexer, parser, checker, bytecode compiler and
// optimizer, compile cache, gogen, the worker pool, both engines at 1
// and nproc workers, the interpreter's work profile and the governor.
// Metrics already measured on the workload's own path are kept.
func probeLayers(o options, w io.Writer, rec *recorder, inputs []probeInput, m map[string]float64) error {
	n := o.nproc
	var lexUS, toks, parseUS, checkUS, compUS, optUS, instrs0, instrs2, hitUS, missUS, genUS []float64
	var in1, inN, vm1, vmN, imbalance, guardOver []float64
	for _, in := range inputs {
		var tl, tp, tc, tb, to, th, tm, tg []float64
		for r := 0; r < probeReps; r++ {
			var ntok int
			tl = append(tl, us(rec.timed("lexer", func() {
				ts, _ := lexer.Tokens(in.file, in.src)
				ntok = len(ts)
			})))
			if r == 0 {
				toks = append(toks, float64(ntok))
			}
			tp = append(tp, us(rec.timed("parser", func() { parser.Parse(in.file, in.src) })))
			prog, err := parser.Parse(in.file, in.src)
			if err != nil {
				return fmt.Errorf("%s: %w", in.name, err)
			}
			var cerr error
			tc = append(tc, us(rec.timed("check", func() { cerr = check.Check(prog) })))
			if cerr != nil {
				return fmt.Errorf("%s: %w", in.name, cerr)
			}
			var bc *bytecode.Program
			tb = append(tb, us(rec.timed("bytecode.compile", func() { bc, err = bytecode.Compile(prog) })))
			if err != nil {
				return fmt.Errorf("%s: %w", in.name, err)
			}
			if r == 0 {
				instrs0 = append(instrs0, float64(countInstrs(bc)))
			}
			to = append(to, us(rec.timed("bytecode.optimize", func() { bytecode.Optimize(bc, bytecode.O2) })))
			if r == 0 {
				instrs2 = append(instrs2, float64(countInstrs(bc)))
			}
			cache := core.NewCompileCache(0)
			tm = append(tm, us(rec.timed("core.miss", func() { cache.CompileBytecode(in.file, in.src, bytecode.O2) })))
			th = append(th, us(rec.timed("core.hit", func() { cache.CompileBytecode(in.file, in.src, bytecode.O2) })))
			var gerr error
			d := rec.timed("gogen", func() { _, gerr = gogen.Generate(prog) })
			if gerr == nil {
				tg = append(tg, us(d))
			}
		}
		lexUS, parseUS, checkUS = append(lexUS, median(tl)), append(parseUS, median(tp)), append(checkUS, median(tc))
		compUS, optUS = append(compUS, median(tb)), append(optUS, median(to))
		hitUS, missUS = append(hitUS, median(th)), append(missUS, median(tm))
		if len(tg) > 0 {
			genUS = append(genUS, median(tg))
		}

		prog, err := core.Compile(in.file, in.src)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		bc, err := core.CompileBytecodeOpt(prog, bytecode.O2)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		runTimes := func(vm bool, workers int, lim guard.Limits) float64 {
			var ts []float64
			for r := 0; r < 3; r++ {
				cfg := core.Config{Stdin: strings.NewReader(in.stdin), Stdout: io.Discard, Limits: lim,
					Sched: sched.Config{Workers: workers}}
				name := "interp"
				if vm {
					name = "vm"
				}
				ts = append(ts, rec.timed(name, func() {
					if vm {
						core.NewVM(bc, cfg).Run()
					} else {
						core.Run(prog, cfg)
					}
				}).Seconds())
			}
			return median(ts)
		}
		sandbox := guard.Limits{}.WithSandboxDefaults()
		in1, inN = append(in1, runTimes(false, 1, sandbox)), append(inN, runTimes(false, n, sandbox))
		vm1, vmN = append(vm1, runTimes(true, 1, sandbox)), append(vmN, runTimes(true, n, sandbox))
		unlimited := runTimes(true, n, guard.Limits{})
		governed := runTimes(true, n, sandbox)
		guardOver = append(guardOver, governed/unlimited-1)

		tw, _ := core.RunProfiled(prog, core.Config{Stdin: strings.NewReader(in.stdin), Stdout: io.Discard,
			Sched: sched.Config{Workers: n}})
		var work []float64
		for _, t := range tw {
			if t.ID != 0 {
				work = append(work, float64(t.Work))
			}
		}
		if len(work) >= 2 && mean(work) > 0 {
			imbalance = append(imbalance, maxOf(work)/mean(work))
		}
	}
	_, tracePaired := m["trace.extra_us_p50"]
	over, traceExtra, err := poolOverhead(inputs, rec, !tracePaired)
	if err != nil {
		return err
	}
	set := func(k string, v float64) {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	if !tracePaired {
		set("trace.extra_us_p50", traceExtra)
		fmt.Fprintf(w, "# trace.extra_us_p50 from direct worker-pool runs of %d programs: trace/race against plain interp\n", len(inputs))
	}
	set("lexer.us", median(lexUS))
	set("lexer.tokens", mean(toks))
	set("parser.us", median(parseUS))
	set("check.us", median(checkUS))
	set("bytecode.compile_us", median(compUS))
	set("bytecode.optimize_us", median(optUS))
	set("bytecode.instrs_o0", mean(instrs0))
	set("bytecode.instrs_o2", mean(instrs2))
	set("core.hit_us", median(hitUS))
	set("core.miss_us", median(missUS))
	set("gogen.generate_us", median(genUS))
	set("interp.run_s_1w", geomean(in1))
	set("interp.run_s_nw", geomean(inN))
	set("vm.run_s_1w", geomean(vm1))
	set("vm.run_s_nw", geomean(vmN))
	set("guard.overhead_frac", median(guardOver))
	set("interp.work_imbalance", 1)
	if len(imbalance) > 0 {
		m["interp.work_imbalance"] = geomean(imbalance)
	}
	set("worker.overhead_us_p50", over)
	return nil
}

func countInstrs(p *bytecode.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, c := range f.Chunks {
			n += len(c.Code)
		}
	}
	return n
}

// poolOverhead is the worker tier's boundary cost, measured by calling a
// one-worker pool directly: round-trip time minus the compile and run
// time the worker reports. With tooling it also returns the median over
// inputs of what trace and race add to a plain interpreter round trip
// through the same pool.
func poolOverhead(inputs []probeInput, rec *recorder, tooling bool) (over, extra float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	pool := worker.NewPool(worker.Options{Cmd: []string{exe, "-worker"}, Size: 1})
	over, extra, err = timePool(pool, inputs, rec, tooling)
	pool.Close()
	if st := pool.Stats(); err == nil && st.Spawns != st.Reaped {
		err = fmt.Errorf("probe pool: %d workers spawned, %d reaped", st.Spawns, st.Reaped)
	}
	return over, extra, err
}

func timePool(pool *worker.Pool, inputs []probeInput, rec *recorder, tooling bool) (float64, float64, error) {
	deadline := time.Now().Add(30 * time.Second)
	for pool.Stats().Idle < 1 {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("probe worker did not start")
		}
		time.Sleep(2 * time.Millisecond)
	}
	lim := guard.Limits{}.WithSandboxDefaults()
	run := func(in probeInput, req *worker.Request) (time.Duration, *worker.Response, error) {
		var resp *worker.Response
		var err error
		d := rec.timed("worker.pool", func() { resp, err = pool.Run(req, worker.RunInfo{}) })
		if err != nil {
			return 0, nil, fmt.Errorf("%s: pool run: %w", in.name, err)
		}
		return d, resp, nil
	}
	var over, extra []float64
	for _, in := range inputs {
		var plain, traced []float64
		for r := 0; r < probeReps; r++ {
			req := &worker.Request{Source: in.src, File: in.file, Stdin: in.stdin, Backend: "vm", Opt: bytecode.O2, Limits: lim}
			d, resp, err := run(in, req)
			if err != nil {
				return 0, 0, err
			}
			over = append(over, us(d)-float64(resp.CompileMicros+resp.RunMicros))
			if !tooling {
				continue
			}
			for _, mode := range []string{"interp", "trace", "race"} {
				req := &worker.Request{Source: in.src, File: in.file, Stdin: in.stdin, Backend: "interp", Limits: lim,
					Trace: mode == "trace", Race: mode == "race"}
				d, _, err := run(in, req)
				if err != nil {
					return 0, 0, err
				}
				if mode == "interp" {
					plain = append(plain, us(d))
				} else {
					traced = append(traced, us(d))
				}
			}
		}
		if tooling {
			extra = append(extra, median(traced)-median(plain))
		}
	}
	return median(over), median(extra), nil
}

// ceiling measures the host's parallel ceiling with the compute kernels'
// native-Go twins.
type ceiling struct {
	cs []*compiled
	n  int
}

func newCeiling(n int) *ceiling {
	c := &ceiling{n: n}
	for _, k := range kernels() {
		cc := &compiled{k: k, want: k.native(1)}
		cc.calibrate()
		c.cs = append(c.cs, cc)
	}
	return c
}

// sample times one T(1 goroutine), T(n) pair per kernel and returns the
// geometric mean of the ratios.
func (c *ceiling) sample() float64 {
	var ratios []float64
	for _, cc := range c.cs {
		a, _ := cc.runNative(1)
		b, _ := cc.runNative(c.n)
		ratios = append(ratios, a.Seconds()/b.Seconds())
	}
	return geomean(ratios)
}

// median of reps samples.
func (c *ceiling) measure(reps int) float64 {
	var xs []float64
	for r := 0; r < reps; r++ {
		xs = append(xs, c.sample())
	}
	return median(xs)
}
