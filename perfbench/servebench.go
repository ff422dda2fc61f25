package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/server"
)

// Set-ups per run; setup_s is their median. Every set-up boots a fresh
// fleet with a fresh native build dir.
const (
	serveSetups   = 3
	computeSetups = 5
)

// runServe measures serve-hot or serve-cold.
//
// Untraced, the measured seconds are rounds of a closed loop with one
// client (20%), a closed loop with nproc clients (30%) and the open loop
// at the workload's fixed rate (50%; at 25 seconds the rates give over
// 2000 samples, so the pooled p99 has 20 beyond it). Traced, they split
// into an untraced closed loop (30%, the tracing-overhead reference), a
// traced closed loop (30%) and a traced open loop (40%), followed by the
// direct layer probes.
func runServe(o options, w io.Writer) (*runResult, error) {
	var load serveLoad
	if o.workload == "serve-hot" {
		h, err := newHotLoad(o.root, o.seed, o.nproc)
		if err != nil {
			return nil, err
		}
		load = h
	} else {
		load = &coldLoad{seed: o.seed, nproc: o.nproc}
	}
	fmt.Fprintf(w, "# workload %s\n", load.describe())
	fmt.Fprintf(w, "# topology tetrarouter -> %d tetrad (isolation=pool, %d in flight each, native threshold %d); %d client goroutines\n",
		replicas, max(1, o.nproc/replicas), nativeThreshold, o.nproc)

	if err := primeToolchain(buildDirFor(o.root, -1)); err != nil {
		return nil, err
	}
	var rec *recorder
	setups := serveSetups
	if o.trace {
		rec = newRecorder()
		setups = 1
	}
	var f *fleet
	var setupTimes []float64
	var attempted, failed int64
	for k := 0; k < setups; k++ {
		start := time.Now()
		var err error
		if f, err = bootFleet(buildDirFor(o.root, k), o.nproc, rec); err != nil {
			return nil, err
		}
		if err := load.warm(f, k); err != nil {
			f.close()
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if k < setups-1 {
			attempted += f.attempted.Load()
			failed += f.failed.Load()
			if err := f.close(); err != nil {
				return nil, err
			}
		}
	}
	fmt.Fprintf(w, "# setup_s samples %.3f\n", setupTimes)

	S := time.Duration(o.seconds) * time.Second
	m := make(map[string]float64)
	var measureErr error
	if o.trace {
		measureErr = tracedServe(o, w, f, load, S, m)
		if _, hot := load.(*hotLoad); hot {
			m["promote.ready_s"] = setupTimes[0]
		} else {
			m["promote.ready_s"] = 0
		}
	} else {
		measureErr = untracedServe(o, w, f, load, S, m)
	}
	m["setup_s"] = median(setupTimes)
	attempted += f.attempted.Load()
	failed += f.failed.Load()
	if err := f.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	if measureErr != nil {
		return nil, measureErr
	}
	if rec != nil {
		path := spansPath(o)
		if err := rec.dump(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "# spans written to %s\n", path)
	}
	return &runResult{metrics: m, attempted: attempted, failed: failed}, nil
}

// serveRound is the length of one measurement round. Rounds interleave
// the phases and a native-Go ceiling sample, so a disturbance from
// outside the benchmark lands on all of them alike; throughput, speedup,
// ceiling_frac and latency_p99_ms are medians over rounds. (The pooled
// p99, with at least 10 samples beyond it, is printed beside it: on a
// shared host one stalled second sets the pooled tail of a whole run.)
// A round whose open loop fell behind its schedule is reported invalid
// and left out of the latencies; the run fails when more than half the
// rounds are.
const serveRound = 2 * time.Second

func untracedServe(o options, w io.Writer, f *fleet, load serveLoad, S time.Duration, m map[string]float64) error {
	rounds := max(1, int(S/serveRound))
	seg := S / time.Duration(rounds)
	gen1 := load.closed("c1", 0)
	gens := make([]func() *request, o.nproc)
	for c := range gens {
		gens[c] = load.closed("cn", c)
	}
	ceil := newCeiling(o.nproc)
	var thrN, ratio, frac, p99s, ceils, lagP99s []float64
	var many, open []outcome
	var n1, nN, invalid int
	mix := pathMix{}
	rss := startRSS(25 * time.Millisecond)
	for r := 0; r < rounds; r++ {
		one, oneT := f.closedLoop("c1", 1, seg*20/100, func(int) *request { return gen1() })
		mr, manyT := f.closedLoop("cn", o.nproc, seg*30/100, func(c int) *request { return gens[c]() })
		or := f.openLoop("open", o.nproc, load.rate(), seg*50/100, func(i int) *request { return load.open(r*1_000_000 + i) })
		lag, err := lagCheck(or, time.Duration(float64(time.Second)/load.rate()))
		if err != nil {
			invalid++
			fmt.Fprintf(w, "# round %d: open loop invalid, left out of the latencies: %v\n", r+1, err)
		} else {
			p99s, open = append(p99s, quantile(latenciesMS(or), 0.99)), append(open, or...)
		}
		c := ceil.sample()
		t1, tn := float64(countOK(one))/oneT.Seconds(), float64(countOK(mr))/manyT.Seconds()
		thrN, ratio, frac = append(thrN, tn), append(ratio, tn/t1), append(frac, tn/t1/c)
		ceils, lagP99s = append(ceils, c), append(lagP99s, lag)
		many = append(many, mr...)
		n1, nN = n1+len(one), nN+len(mr)
		mix.add(one, mr, or)
	}
	var rssPeak float64
	m["peak_rss_mb"], rssPeak = rss.Stop()
	if 2*invalid > rounds {
		return fmt.Errorf("open loop fell behind its schedule in %d of %d rounds", invalid, rounds)
	}

	m["throughput_rps"] = median(thrN)
	m["speedup"] = median(ratio)
	m["ceiling_frac"] = median(frac)
	lat := latenciesMS(open)
	m["latency_p50_ms"] = quantile(lat, 0.50)
	m["latency_p99_ms"] = median(p99s)
	m["run_s"] = groupMedianGeomean(many)
	fmt.Fprintf(w, "# %d rounds of %s: closed loop 1 client %d replies, %d clients %d replies; native-Go speedup %.3f\n",
		rounds, seg, n1, o.nproc, nN, median(ceils))
	fmt.Fprintf(w, "# open loop %d valid rounds of %d, %d requests at %.0f/s: pooled p99 %.3fms (%d beyond it), per-round p99 %.2f; generator lag p99 %.3fms\n",
		rounds-invalid, rounds, len(open), load.rate(), quantile(lat, 0.99), len(open)-int(math.Ceil(0.99*float64(len(open)))), p99s, maxOf(lagP99s))
	fmt.Fprintf(w, "# peak_rss_mb %.1f (median of one-second window peaks; single peak %.1f)\n", m["peak_rss_mb"], rssPeak)
	fmt.Fprintf(w, "# measured request mix: %s\n", mix)
	return nil
}

// pathMix counts measured requests by the path they take: mode, the tier
// that served them and, for generated submissions, the error stage and
// the path-picking features (stdin, parallel for, lock). The traffic mix
// is the benchmark's own assumption, not observed student traffic, so
// every run prints what it actually sent.
type pathMix map[string]int

func (p pathMix) add(phases ...[]outcome) {
	for _, outs := range phases {
		for i := range outs {
			o := &outs[i]
			p[""]++
			p[o.req.mode]++
			if o.rep != nil && o.rep.Isolation == server.TierNative {
				p["native tier"]++
			}
			if !strings.HasPrefix(o.req.group, "submission/") {
				continue
			}
			feats, errKind, _ := strings.Cut(o.req.program, "!")
			switch errKind {
			case "index", "div":
				p["runtime error"]++
			case "compile":
				p["compile error"]++
			}
			for _, f := range strings.Split(feats, "+") {
				switch f {
				case "io":
					p["stdin"]++
				case "pfor", "lock":
					p[f]++
				}
			}
		}
	}
}

func (p pathMix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d requests;", p[""])
	for _, k := range []string{"interp", "vm0", "vm2", "trace", "race", "native tier", "runtime error", "compile error", "stdin", "pfor", "lock"} {
		if _, ok := p[k]; ok {
			fmt.Fprintf(&b, " %s %.1f%%", k, 100*float64(p[k])/float64(p[""]))
		}
	}
	return b.String()
}

// counters are the fleet's own metrics, sampled at phase boundaries.
type counters struct {
	routerRetries, spillovers  int64
	rejected, crashes, retries int64
}

func sampleCounters(f *fleet) counters {
	rm := f.router.Metrics()
	c := counters{routerRetries: rm.Retries, spillovers: rm.Spillovers}
	for _, s := range f.servers {
		sm := s.Metrics()
		c.rejected += sm.Rejected429 + sm.Rejected503
		if sm.Worker != nil {
			c.crashes += sm.Worker.Crashes
			c.retries += sm.Worker.Retries
		}
	}
	return c
}

func tracedServe(o options, w io.Writer, f *fleet, load serveLoad, S time.Duration, m map[string]float64) error {
	gens := func(phase string) func(c int) *request {
		g := make([]func() *request, o.nproc)
		for c := range g {
			g[c] = load.closed(phase, c)
		}
		return func(c int) *request { return g[c]() }
	}
	plain, plainT := f.closedLoop("ref", o.nproc, S*30/100, gens("ref"))
	before := sampleCounters(f)
	f.rec.enabled.Store(true)
	traced, tracedT := f.closedLoop("cn", o.nproc, S*30/100, gens("cn"))
	open := f.openLoop("open", o.nproc, load.rate(), S*40/100, load.open)
	f.rec.enabled.Store(false)
	after := sampleCounters(f)

	lagP99, err := lagCheck(open, time.Duration(float64(time.Second)/load.rate()))
	if err != nil {
		fmt.Fprintf(w, "# traced open loop invalid, left out of the serve-path layers: %v\n", err)
		open = nil
	}
	thrU := float64(countOK(plain)) / plainT.Seconds()
	thrT := float64(countOK(traced)) / tracedT.Seconds()
	m["tracing.overhead_frac"] = (thrU - thrT) / thrU
	m["loadgen.lag_p99_ms"] = lagP99
	m["router.retries"] = float64(after.routerRetries - before.routerRetries)
	m["router.spillovers"] = float64(after.spillovers - before.spillovers)
	m["server.rejected"] = float64(after.rejected - before.rejected)
	m["worker.crashes"] = float64(after.crashes - before.crashes)
	m["worker.retries"] = float64(after.retries - before.retries)
	servePathLayers(w, f, append(traced, open...), f.rec.all(), m)
	promoteLayers(f, load, m)

	f.rec.enabled.Store(true)
	defer f.rec.enabled.Store(false)
	m["native_go.speedup"] = newCeiling(o.nproc).measure(5)
	return probeLayers(o, w, f.rec, load.probeInputs(), m)
}

// servePathLayers joins the spans of each request (client → router →
// tetrad, with the reply's compile_us and run_us as the innermost
// layers) and derives the serve-path per-layer metrics and the self-time
// table. The native runner starts its clock after fork/exec, so a native
// reply's run_us is the artifact's own run and the process spawn lands
// in native.dispatch_us_p50 (tetrad span minus run_us).
// trace.extra_us_p50 compares trace and race replies with the plain
// interpreter replies of the same program that the worker tier served,
// so both sides pay the same tier. Where the workload has no such pairs
// (serve-hot: every plain reply is native) it is left to the direct
// worker-pool probe.
func servePathLayers(w io.Writer, f *fleet, outs []outcome, spans []span, m map[string]float64) {
	type reqSpans struct {
		client, router time.Duration
		tetrad         time.Duration
		seen           bool
	}
	by := make(map[string]*reqSpans)
	get := func(id string) *reqSpans {
		r := by[id]
		if r == nil {
			r = &reqSpans{}
			by[id] = r
		}
		return r
	}
	for _, s := range spans {
		switch s.Name {
		case "client":
			get(s.ReqID).client = s.dur()
		case "router":
			get(s.ReqID).router = s.dur()
		case "tetrad":
			r := get(s.ReqID)
			r.tetrad += s.dur() // a retried request crosses more than one replica
			r.seen = true
		}
	}
	var clientSelf, routerSelf, serverSelf, compile, execWorker, execNative, nativeDispatch, vmExec []float64
	var owned, replies, native, hits, workerReplies float64
	latBy := make(map[string]map[bool][]float64) // program → traced mode? → latency µs
	ring := f.router.Ring()
	for i := range outs {
		o := &outs[i]
		if o.rep == nil {
			continue
		}
		rs := by[o.id]
		if rs == nil || !rs.seen || rs.client == 0 || rs.router == 0 {
			continue // in flight while recording switched on or off
		}
		replies++
		runUS, compUS := float64(o.rep.RunUS), float64(o.rep.CompileUS)
		clientSelf = append(clientSelf, us(rs.client-rs.router))
		routerSelf = append(routerSelf, us(rs.router-rs.tetrad))
		serverSelf = append(serverSelf, us(rs.tetrad)-compUS-runUS)
		compile = append(compile, compUS)
		if o.backend == ring.Owner(o.req.key) {
			owned++
		}
		switch o.rep.Isolation {
		case server.TierNative:
			native++
			execNative = append(execNative, runUS)
			nativeDispatch = append(nativeDispatch, us(rs.tetrad)-runUS)
		default:
			workerReplies++
			hits += b2f(o.rep.CacheHit)
			execWorker = append(execWorker, runUS)
			if o.req.mode == "vm0" || o.req.mode == "vm2" {
				vmExec = append(vmExec, runUS)
			}
		}
		tooling := o.req.mode == "trace" || o.req.mode == "race"
		if !tooling && (o.req.mode != "interp" || o.rep.Isolation == server.TierNative) {
			continue
		}
		if latBy[o.req.program] == nil {
			latBy[o.req.program] = make(map[bool][]float64)
		}
		latBy[o.req.program][tooling] = append(latBy[o.req.program][tooling], us(rs.client))
	}
	var extra []float64
	for _, l := range latBy {
		if len(l[true]) > 0 && len(l[false]) > 0 {
			extra = append(extra, median(l[true])-median(l[false]))
		}
	}
	m["router.self_us_p50"] = median(routerSelf)
	m["router.affinity_frac"] = owned / max(replies, 1)
	m["server.self_us_p50"] = median(serverSelf)
	m["native.share"] = native / max(replies, 1)
	m["native.dispatch_us_p50"] = median(nativeDispatch)
	m["core.hit_frac"] = hits / max(workerReplies, 1)
	m["vm.exec_us_p50"] = median(vmExec)
	if len(extra) > 0 {
		m["trace.extra_us_p50"] = median(extra)
		fmt.Fprintf(w, "# trace.extra_us_p50 from %d programs with trace/race and plain interp replies on the worker tier\n", len(extra))
	}
	printSelfTable(w, fmt.Sprintf("serve path, %.0f traced replies", replies), []selfRow{
		{"client+loopback", clientSelf},
		{"router", routerSelf},
		{"tetrad+worker pipe", serverSelf},
		{"compile", compile},
		{"exec (worker)", execWorker},
		{"exec (native process)", execNative},
	})
}

// promoteLayers reports the native tier's build work: builds across
// replicas per program promoted anywhere. Above 1 means replicas built
// the same program twice (the router keys by opt level, promotion does
// not).
func promoteLayers(f *fleet, load serveLoad, m map[string]float64) {
	var builds int64
	for _, s := range f.servers {
		builds += s.Promoter().Stats().Builds
	}
	promoted := 0
	if h, ok := load.(*hotLoad); ok {
		for _, g := range h.gs {
			for _, s := range f.servers {
				if _, ok := s.Promoter().Artifact(g.file, g.src); ok {
					promoted++
					break
				}
			}
		}
	}
	m["promote.builds_per_program"] = 0
	if promoted > 0 {
		m["promote.builds_per_program"] = float64(builds) / float64(promoted)
	}
}

func spansPath(o options) string {
	return filepath.Join(o.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}
