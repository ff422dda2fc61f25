package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/tetra"
)

// fleet is the serving topology under test: one tetrarouter in front of
// two tetrad replicas, each on its own loopback listener inside this
// process, configured as cmd/tetrad and cmd/tetrarouter ship them
// (supervised worker pool, native tier at threshold 32, affinity
// routing). Execution processes are bounded by nproc: each replica may
// run nproc/2 programs at once (at least one).
//
// Each replica gets its own native build dir under buildDir, as replicas
// on separate hosts would have. Two promoters sharing one dir race on the
// artifact's temporary file when both build the same program at once,
// and the loser's build fails.
type fleet struct {
	servers  []*tetra.Server
	ids      []string
	https    []*http.Server
	serveErr []chan error
	router   *tetra.Router
	rsrv     *http.Server
	rErr     chan error
	url      string
	buildDir string
	client   *http.Client
	rec      *recorder

	attempted, failed atomic.Int64
	failures          atomic.Int64 // failures already logged
	nextID            atomic.Int64
}

const (
	replicas        = 2
	nativeThreshold = 32
)

func bootFleet(buildDir string, nproc int, rec *recorder) (*fleet, error) {
	perReplica := max(1, nproc/replicas)
	f := &fleet{buildDir: buildDir, rec: rec}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	var backends []tetra.RouterBackend
	for i := 0; i < replicas; i++ {
		srv := tetra.NewServer(tetra.ServerOptions{
			Isolation:       tetra.IsolationPool,
			MaxInFlight:     perReplica,
			PoolSize:        perReplica,
			NativeThreshold: nativeThreshold,
			NativeBuildDir:  filepath.Join(buildDir, fmt.Sprintf("tetrad%d", i)),
		})
		id := fmt.Sprintf("tetrad%d", i)
		url, hs, errc, err := listen(rec.wrapHandler("tetrad", "router", id, srv))
		if err != nil {
			srv.Drain(nil)
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.ids = append(f.ids, id)
		f.https = append(f.https, hs)
		f.serveErr = append(f.serveErr, errc)
		backends = append(backends, tetra.RouterBackend{ID: id, URL: url})
	}
	rt, err := tetra.NewRouter(tetra.RouterOptions{Backends: backends})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	f.url, f.rsrv, f.rErr, err = listen(rec.wrapHandler("router", "client", "router", rt))
	if err != nil {
		f.close()
		return nil, err
	}
	f.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: nproc,
		MaxConnsPerHost:     nproc,
		DisableCompression:  true,
	}}
	return f, f.waitReady(perReplica, 30*time.Second)
}

func listen(h http.Handler) (string, *http.Server, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), hs, errc, nil
}

// waitReady returns once every worker pool is full and both replicas are
// on the router's ring.
func (f *fleet) waitReady(perReplica int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := f.router.Metrics().RingMembers == replicas
		for _, s := range f.servers {
			if st := s.Pool().Stats(); st.Idle < perReplica {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			f.close()
			return fmt.Errorf("fleet not ready within %s", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close drains router and replicas, stops their listeners, removes the
// native build dir and verifies that every process the fleet spawned
// was reaped.
func (f *fleet) close() error {
	var errs []error
	if f.router != nil {
		errs = append(errs, f.router.Close())
	}
	if f.rsrv != nil {
		errs = append(errs, f.rsrv.Close())
		<-f.rErr
	}
	for i, s := range f.servers {
		errs = append(errs, s.Drain(nil))
		errs = append(errs, f.https[i].Close())
		<-f.serveErr[i]
		m := s.Metrics()
		if w := m.Worker; w != nil && w.Spawns != w.Reaped {
			errs = append(errs, fmt.Errorf("%s: %d workers spawned, %d reaped", f.ids[i], w.Spawns, w.Reaped))
		}
		if n := m.Native; n != nil && n.Spawns != n.Reaped {
			errs = append(errs, fmt.Errorf("%s: %d native processes spawned, %d reaped", f.ids[i], n.Spawns, n.Reaped))
		}
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(f.buildDir), checkNoOrphans(5*time.Second))
	return errors.Join(errs...)
}

// request is one POST /run the load generator can send.
type request struct {
	// group is the workload's request kind and mode, for run_s's
	// per-group medians. Requests group by mode only: a Zipf tail
	// program, or one of hundreds of feature combinations, would give a
	// group too few samples for a median.
	group   string
	program string
	mode    string
	body    []byte
	key     string // the router's affinity key for this body
	check   func(*reply) error
}

// reply mirrors tetrad's POST /run answer, decoded independently of the
// server's own types.
type reply struct {
	OK     bool   `json:"ok"`
	Stdout string `json:"stdout"`
	Error  *struct {
		Stage   string `json:"stage"`
		Message string `json:"message"`
		Pos     string `json:"pos"`
	} `json:"error"`
	CacheHit  bool            `json:"cache_hit"`
	CompileUS int64           `json:"compile_us"`
	RunUS     int64           `json:"run_us"`
	Isolation string          `json:"isolation"`
	Attempts  int             `json:"attempts"`
	Trace     json.RawMessage `json:"trace"`
}

type runBody struct {
	Source  string `json:"source"`
	File    string `json:"file"`
	Stdin   string `json:"stdin,omitempty"`
	Backend string `json:"backend"`
	Opt     *int   `json:"opt,omitempty"`
	Trace   bool   `json:"trace,omitempty"`
	Race    bool   `json:"race,omitempty"`
}

// modes are the request flavours: the interpreter, the VM at -O0 and -O2,
// and the interpreter with the race-teaching tooling on.
var modes = []string{"interp", "vm0", "vm2", "trace", "race"}

// drawMode picks a mode: one request in ten asks for trace or race.
func drawMode(u int) string {
	switch {
	case u == 0:
		return "trace"
	case u == 1:
		return "race"
	default:
		return modes[(u-2)%3]
	}
}

func newRequest(group, program, mode, file, src, stdin string, check func(*reply) error) *request {
	b := runBody{Source: src, File: file, Stdin: stdin, Backend: "interp"}
	level := 2 // the router keys a request without an opt level at -O2
	switch mode {
	case "vm0", "vm2":
		b.Backend = "vm"
		level = int(mode[2] - '0')
		b.Opt = &level
	case "trace":
		b.Trace = true
	case "race":
		b.Race = true
	}
	body, err := json.Marshal(b)
	if err != nil {
		panic(err) // plain strings and ints always marshal
	}
	return &request{group: group + "/" + mode, program: program, mode: mode, body: body,
		key: core.CacheKey(file, src, level), check: check}
}

// outcome is one request's result as the load generator saw it.
type outcome struct {
	req     *request
	id      string
	due     time.Time // open loop: when the request was scheduled
	start   time.Time
	end     time.Time
	rep     *reply
	backend string
	err     error
}

func (o *outcome) latency() time.Duration {
	if !o.due.IsZero() {
		return o.end.Sub(o.due)
	}
	return o.end.Sub(o.start)
}

// send posts one request through the router and checks the reply
// against the request's oracle.
func (f *fleet) send(phase string, rq *request, due time.Time) outcome {
	o := outcome{req: rq, id: fmt.Sprintf("%s-%d", phase, f.nextID.Add(1)), due: due}
	hr, err := http.NewRequest(http.MethodPost, f.url+"/run", bytes.NewReader(rq.body))
	if err != nil {
		panic(err) // the URL is ours and well-formed
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-ID", o.id)
	var recStart time.Duration
	if f.rec.on() {
		recStart = f.rec.now()
	}
	o.start = time.Now()
	resp, err := f.client.Do(hr)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.end = time.Now()
	f.attempted.Add(1)
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	default:
		o.backend = resp.Header.Get("X-Tetra-Backend")
		var rep reply
		if err := json.Unmarshal(body, &rep); err != nil {
			o.err = fmt.Errorf("decoding reply: %v", err)
		} else {
			o.rep = &rep
			o.err = rq.check(&rep)
		}
	}
	if o.err != nil {
		f.failed.Add(1)
		if f.failures.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: request %s (%s) failed: %v\n", o.id, rq.group, o.err)
		}
	}
	if f.rec.on() {
		s := span{Name: "client", ReqID: o.id, Start: recStart, End: f.rec.now(),
			Labels: map[string]string{"mode": rq.mode, "program": rq.program, "backend": o.backend}}
		if o.rep != nil {
			s.Labels["isolation"] = o.rep.Isolation
			s.Attrs = map[string]float64{"compile_us": float64(o.rep.CompileUS), "run_us": float64(o.rep.RunUS),
				"attempts": float64(o.rep.Attempts), "cache_hit": b2f(o.rep.CacheHit)}
		}
		f.rec.add(s)
	}
	return o
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// closedLoop runs clients goroutines, each sending its next request as
// soon as the previous reply arrives, for dur.
func (f *fleet) closedLoop(phase string, clients int, dur time.Duration, next func(client int) *request) ([]outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	results := make([][]outcome, clients)
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for time.Now().Before(deadline) {
				results[c] = append(results[c], f.send(phase, next(c), time.Time{}))
			}
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	elapsed := time.Since(start)
	var all []outcome
	for _, r := range results {
		all = append(all, r...)
	}
	return all, elapsed
}

// openLoop sends request i at start + i/rate, whether or not earlier
// replies have arrived, from at most clients goroutines. Latency counts
// from when a request was due, so a stall is charged to every request
// it delays; lag is how late each request actually left.
func (f *fleet) openLoop(phase string, clients int, rate float64, dur time.Duration, next func(i int) *request) []outcome {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	outs := make([]outcome, n)
	var cursor atomic.Int64
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				rq := next(i)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				outs[i] = f.send(phase, rq, due)
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	return outs
}

// lagCheck reports how late the open-loop generator ran and whether its
// backlog kept growing: a phase whose last fifth started much later than
// its first fifth was not served at the offered rate, and its latencies
// are not reported.
func lagCheck(outs []outcome, interval time.Duration) (lagP99 float64, err error) {
	lags := make([]float64, len(outs))
	for i, o := range outs {
		lags[i] = ms(o.start.Sub(o.due))
	}
	fifth := len(lags) / 5
	if fifth == 0 {
		return quantile(lags, 0.99), nil
	}
	first, last := median(lags[:fifth]), median(lags[len(lags)-fifth:])
	limit := ms(20*interval) + 2*first
	if last > limit {
		return quantile(lags, 0.99), fmt.Errorf("open loop fell behind its schedule: median lag %.2fms in the last fifth vs %.2fms in the first", last, first)
	}
	return quantile(lags, 0.99), nil
}

func latenciesMS(outs []outcome) []float64 {
	v := make([]float64, 0, len(outs))
	for i := range outs {
		v = append(v, ms(outs[i].latency()))
	}
	return v
}

// countOK is the number of replies that passed their check.
func countOK(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.err == nil {
			n++
		}
	}
	return n
}

// groupMedianGeomean is the geometric mean, over request groups, of each
// group's median latency in seconds.
func groupMedianGeomean(outs []outcome) float64 {
	by := make(map[string][]float64)
	for i := range outs {
		by[outs[i].req.group] = append(by[outs[i].req.group], outs[i].latency().Seconds())
	}
	var meds []float64
	for _, v := range by {
		meds = append(meds, median(v))
	}
	return geomean(meds)
}

func buildDirFor(root string, k int) string {
	return filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%d-native-%d", os.Getpid(), k))
}
