// Package server is tetrad, the sandboxed Tetra execution service: the
// paper's IDE (§III) exists to run untrusted student programs on demand,
// and this package exposes that workload over HTTP at production scale.
//
// POST /run accepts one program (source, stdin, backend choice, -O level,
// per-request limit overrides) and answers with the program's output and
// diagnostics. Four in-tree mechanisms make it safe to point at the open
// internet:
//
//   - every execution runs under a guard.Governor whose budgets are the
//     request's limits clamped by a server-wide sandbox ceiling — a client
//     can tighten its own budget but never raise it;
//   - with isolation enabled, execution happens inside supervised worker
//     processes (internal/worker): a backend panic, runaway allocation or
//     stuck lock kills a disposable child, the supervisor restarts it with
//     backoff, retries the request on a fresh worker, and quarantines
//     programs that repeatedly kill workers (422 instead of burned pool);
//   - compilation goes through per-process compile caches, so the
//     steady-state cost of a popular exercise is a map lookup (~250×
//     cheaper than a cold compile, BENCH_opt.json);
//   - an admission controller bounds in-flight executions and queue wait,
//     converting overload into prompt, well-formed 429s instead of
//     unbounded goroutine and memory growth.
//
// GET /metrics exposes cache hit rate, in-flight count, queue depth,
// per-backend latency histograms, worker supervision counters and crash
// forensics; GET /healthz/live answers as long as the process runs, GET
// /healthz/ready (and the legacy /healthz) flips to 503 the moment a
// drain begins — before any in-flight run is cancelled — so routers stop
// sending traffic first.
//
// Shutdown is graceful: Drain flips readiness, optionally waits a
// drain-announce window, stops admissions, waits for in-flight runs, and
// after the grace period cancels stragglers through the governor trip
// path — which wakes threads parked on Tetra locks, so even a program
// blocked inside `lock:` exits promptly (the liveness concern of "Fencing
// off Go", Lange et al.). Worker processes are killed and reaped on the
// way out: zero orphans.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/promote"
	"repro/internal/session"
	"repro/internal/worker"
)

// Isolation modes for Options.Isolation.
const (
	// IsolationOff executes programs in the server's own process — the
	// explicit degraded mode, and the automatic fallback when the
	// worker pool is exhausted.
	IsolationOff = "off"
	// IsolationPool executes programs in supervised worker processes.
	IsolationPool = "pool"
)

// Execution tiers echoed in RunResponse.Isolation.
const (
	TierWorker = "worker" // ran inside a pooled worker process
	TierInProc = "inproc" // ran in the server process
	TierNative = "native" // ran a promoted gogen-compiled binary
)

// Options configures a Server; the zero value serves sandbox-limited
// in-process executions with sensible production defaults.
type Options struct {
	// Ceiling is the server-wide resource ceiling every execution is
	// clamped by. The zero value applies the sandbox defaults
	// (guard.Limits.WithSandboxDefaults); to genuinely unbound an axis set
	// its field negative.
	Ceiling guard.Limits
	// NoSandboxDefaults serves the Ceiling exactly as given, without
	// filling unset fields with sandbox defaults. For trusted deployments.
	NoSandboxDefaults bool
	// MaxInFlight bounds concurrently-executing programs. Default
	// 2×GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; arrivals
	// beyond it are rejected immediately with 429. Default 4×MaxInFlight.
	MaxQueue int
	// QueueTimeout bounds how long an admitted-queue request waits for a
	// slot before a 429. Default 1s.
	QueueTimeout time.Duration
	// DrainGrace is how long Drain lets in-flight executions finish before
	// cancelling them via the governor. Default guard.DefaultGrace.
	DrainGrace time.Duration
	// DrainAnnounce is how long Drain keeps serving after flipping
	// readiness to 503, giving routers time to stop sending traffic
	// before admissions close. Default 0 (close immediately).
	DrainAnnounce time.Duration
	// CacheEntries sizes the in-process compile cache (<= 0 selects the
	// core default). Worker processes size their own caches.
	CacheEntries int
	// MaxBodyBytes bounds the request body. Default 4 MiB.
	MaxBodyBytes int64

	// Isolation selects the execution tier: IsolationOff (default — the
	// embedded-library mode) or IsolationPool (supervised worker
	// processes; what cmd/tetrad runs with).
	Isolation string
	// PoolSize is the number of pre-forked workers (default MaxInFlight).
	PoolSize int
	// WorkerCmd is the argv spawning one worker. Default: this
	// executable re-exec'd with -worker.
	WorkerCmd []string
	// WorkerEnv is extra environment for workers (the chaos suites pass
	// TETRA_FAULTS here).
	WorkerEnv []string
	// Retry bounds execution attempts per request when workers crash.
	Retry worker.RetryPolicy
	// Quarantine is the circuit breaker for worker-killing programs.
	Quarantine worker.QuarantinePolicy

	// NativeThreshold enables the native promotion tier: after this many
	// requests for one program, a background builder compiles it via
	// gogen → `go build` and subsequent requests run the native binary
	// (demoting back to the VM if the artifact crashes). 0 disables the
	// tier — the library default; cmd/tetrad enables it at 32. The tier
	// needs the Go toolchain; without one it silently stays off.
	NativeThreshold int
	// NativeBuildDir is where promoted artifacts are written
	// (default <os.TempDir()>/tetrad-native). Artifacts are
	// content-addressed and reused across restarts.
	NativeBuildDir string
	// NativeRebuildBackoff is the cooldown before a demoted program may
	// be promoted again (default 30s).
	NativeRebuildBackoff time.Duration

	// MaxSessions caps live streaming debug sessions server-wide (POST
	// /session answers 429 beyond it). Default 32.
	MaxSessions int
	// SessionIdleTimeout evicts sessions with no stream subscriber and no
	// command activity for this long. Default 2m.
	SessionIdleTimeout time.Duration
	// SessionMaxAge replaces the batch deadline on the session path: an
	// interactive session may live this long before the governor ends it.
	// Default 10m.
	SessionMaxAge time.Duration
	// SessionTraceCap is the default trace-ring bound per session (0
	// selects trace.DefaultCap); individual sessions may tighten it.
	SessionTraceCap int

	// Faults arms the server-side injection points (fault.HandlerPanic,
	// fault.NativeKill) for the chaos suites. Nil means no injection.
	Faults *fault.Injector
	// Logf, when set, receives operational events: worker crashes with
	// request-ID forensics, spawn failures, handler panics.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if !o.NoSandboxDefaults {
		o.Ceiling = o.Ceiling.WithSandboxDefaults()
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = time.Second
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = guard.DefaultGrace
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 4 << 20
	}
	if o.Isolation == "" {
		o.Isolation = IsolationOff
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 32
	}
	if o.SessionIdleTimeout <= 0 {
		o.SessionIdleTimeout = 2 * time.Minute
	}
	if o.SessionMaxAge <= 0 {
		o.SessionMaxAge = 10 * time.Minute
	}
	if o.PoolSize <= 0 {
		o.PoolSize = o.MaxInFlight
	}
	if o.Isolation == IsolationPool && len(o.WorkerCmd) == 0 {
		if exe, err := os.Executable(); err == nil {
			o.WorkerCmd = []string{exe, "-worker"}
		} else {
			o.Isolation = IsolationOff // cannot self-exec; degrade
		}
	}
	return o
}

// Server is the tetrad HTTP handler. Create with New; it is immediately
// ready to serve and safe for concurrent use.
type Server struct {
	opts     Options
	cache    *core.CompileCache
	pool     *worker.Pool         // nil when isolation is off
	promoter *promote.Manager     // nil when the native tier is off
	native   *worker.NativeRunner // nil when the native tier is off
	quar     *quarantine
	sessions *session.Registry
	sem      chan struct{}

	notReady  atomic.Bool // readiness flipped (drain announced)
	draining  atomic.Bool // admissions closed
	drainCh   chan struct{}
	drainOnce sync.Once

	mu      sync.Mutex
	running map[uint64]worker.Canceler
	nextID  atomic.Uint64

	met metrics
}

// New returns a Server enforcing opts. With IsolationPool the worker
// pool spawns asynchronously: a pool that cannot start (missing
// executable, fork limits) simply never has idle workers, and every
// request degrades to in-process execution instead of failing.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		cache:   core.NewCompileCache(opts.CacheEntries),
		quar:    newQuarantine(opts.Quarantine),
		sem:     make(chan struct{}, opts.MaxInFlight),
		drainCh: make(chan struct{}),
		running: make(map[uint64]worker.Canceler),
	}
	s.sessions = session.NewRegistry(session.Options{
		MaxSessions: opts.MaxSessions,
		IdleTimeout: opts.SessionIdleTimeout,
		TraceCap:    opts.SessionTraceCap,
		Logf:        opts.Logf,
	})
	if opts.Isolation == IsolationPool {
		s.pool = worker.NewPool(worker.Options{
			Cmd:   opts.WorkerCmd,
			Env:   opts.WorkerEnv,
			Size:  opts.PoolSize,
			Retry: opts.Retry,
			Logf:  opts.Logf,
		})
	}
	if opts.NativeThreshold > 0 {
		native := worker.NewNativeRunner(worker.NativeOptions{
			Faults: opts.Faults,
			Logf:   opts.Logf,
		})
		promoter := promote.New(promote.Config{
			Threshold:      opts.NativeThreshold,
			BuildDir:       opts.NativeBuildDir,
			RebuildBackoff: opts.NativeRebuildBackoff,
			Logf:           opts.Logf,
			OnReady: func(id core.ProgramID) {
				// A fresh artifact wipes the slate: crashes recorded
				// against the program's previous binary must not hold it
				// behind a stale quarantine.
				s.quar.Acquit(breakerKey{id: id, engine: TierNative})
				s.met.promotions.Add(1)
			},
		})
		if promoter.Enabled() {
			s.promoter, s.native = promoter, native
		} else {
			// No toolchain: the tier stays off and every request simply
			// serves on the interp/VM tiers, as before.
			promoter.Close()
			native.Close()
			s.logf("native tier requested but unavailable (no Go toolchain/module); serving without it")
		}
	}
	return s
}

// Ceiling returns the effective server-wide limit ceiling.
func (s *Server) Ceiling() guard.Limits { return s.opts.Ceiling }

// Options returns the effective (defaulted) server options.
func (s *Server) Options() Options { return s.opts }

// Sessions exposes the streaming-session registry (for tests and
// benchmarks).
func (s *Server) Sessions() *session.Registry { return s.sessions }

// Cache exposes the in-process compile cache (for tests and benchmarks).
func (s *Server) Cache() *core.CompileCache { return s.cache }

// Pool exposes the worker supervisor, or nil when isolation is off
// (for tests and benchmarks).
func (s *Server) Pool() *worker.Pool { return s.pool }

// Promoter exposes the native promotion manager, or nil when the
// native tier is off (for tests and benchmarks).
func (s *Server) Promoter() *promote.Manager { return s.promoter }

// Native exposes the native artifact runner, or nil when the native
// tier is off (for tests and benchmarks).
func (s *Server) Native() *worker.NativeRunner { return s.native }

// statusWriter records whether a response has been started, so the
// panic-recovery middleware knows whether a 500 can still be written.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so SSE streams (the session
// event endpoint) can push frames through the middleware wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP routes the endpoints behind the panic-recovery middleware:
// a panic anywhere in request handling answers with a well-formed 500
// JSON body (when the response has not started) instead of tearing down
// the connection, and increments the panics counter.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Add(1)
			s.logf("panic handling %s %s: %v", r.Method, r.URL.Path, rec)
			if !sw.wrote {
				writeError(sw, http.StatusInternalServerError,
					fmt.Sprintf("internal error: %v", rec))
			}
		}
	}()
	switch r.URL.Path {
	case "/run":
		s.handleRun(sw, r)
	case "/session":
		s.handleSessionCreate(sw, r)
	case "/metrics":
		s.handleMetrics(sw, r)
	case "/healthz", "/healthz/ready":
		s.handleReady(sw, r)
	case "/healthz/live":
		s.handleLive(sw, r)
	default:
		if strings.HasPrefix(r.URL.Path, "/session/") {
			s.handleSessionSub(sw, r)
			return
		}
		writeError(sw, http.StatusNotFound, fmt.Sprintf("no such endpoint %q", r.URL.Path))
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	reqID := RequestIDFrom(r)
	w.Header().Set("X-Request-ID", reqID)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST /run with a JSON body")
		return
	}
	s.met.requests.Add(1)
	if s.draining.Load() {
		s.met.rejected503.Add(1)
		// A draining node is moments from handing its shard to a peer:
		// the jittered Retry-After tells routers and clients when to try
		// again without returning in lockstep.
		w.Header().Set("Retry-After", strconv.Itoa(1+mrand.Intn(3)))
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxBodyBytes+1))
	if err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	if int64(len(body)) > s.opts.MaxBodyBytes {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.opts.MaxBodyBytes))
		return
	}
	req, err := DecodeRunRequest(body)
	if err != nil {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Chaos hook: prove the panic middleware answers 500 instead of
	// dropping the connection.
	if _, ok := s.opts.Faults.Fire(fault.HandlerPanic); ok {
		panic("fault injected: handler panic")
	}

	// The program's identity is derived once here and keys every
	// per-program table below. The quarantine circuit breaker rejects
	// known worker-killers before they cost an admission slot or another
	// worker.
	id := core.NewProgramID(req.File, req.Source)
	if d, ok := s.quar.Quarantined(breakerKey{id: id, engine: req.Backend, opt: OptLevel(req.Opt)}); ok {
		s.reject422(w, req, d)
		return
	}

	release, status, msg := s.admit(r)
	if status != 0 {
		if status == http.StatusTooManyRequests {
			s.met.rejected429.Add(1)
			// Jittered Retry-After: a herd rejected in the same burst
			// must not come back in the same burst.
			w.Header().Set("Retry-After", strconv.Itoa(1+mrand.Intn(3)))
		} else {
			s.met.rejected503.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(1+mrand.Intn(3)))
		}
		writeError(w, status, msg)
		return
	}
	defer release()

	resp, errStatus, errMsg, retryIn := s.execute(req, id, reqID)
	if errStatus != 0 {
		if errStatus == http.StatusUnprocessableEntity {
			s.reject422(w, req, retryIn)
			return
		}
		s.met.rejected503.Add(1)
		writeError(w, errStatus, errMsg)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// reject422 answers a quarantined program: a positioned, well-formed
// 422 naming the file, with a Retry-After for when the quarantine lifts.
func (s *Server) reject422(w http.ResponseWriter, req *RunRequest, remaining time.Duration) {
	s.met.rejected422.Add(1)
	secs := int(remaining/time.Second) + 1
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusUnprocessableEntity,
		fmt.Sprintf("%s: program quarantined: it repeatedly crashed execution workers; retry in %s",
			req.File, remaining.Round(time.Second)))
}

// admit implements the admission controller: a bounded queue in front of a
// bounded set of execution slots. It returns a release func on success, or
// a non-zero HTTP status with a diagnostic on rejection.
func (s *Server) admit(r *http.Request) (release func(), status int, msg string) {
	if d := s.met.queueDepth.Add(1); d > int64(s.opts.MaxQueue) {
		s.met.queueDepth.Add(-1)
		return nil, http.StatusTooManyRequests,
			fmt.Sprintf("admission queue full (%d waiting, %d executing); retry later",
				s.opts.MaxQueue, s.opts.MaxInFlight)
	}
	defer s.met.queueDepth.Add(-1)

	t := time.NewTimer(s.opts.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
	case <-t.C:
		return nil, http.StatusTooManyRequests,
			fmt.Sprintf("no execution slot within %s (%d in flight); retry later",
				s.opts.QueueTimeout, s.opts.MaxInFlight)
	case <-s.drainCh:
		return nil, http.StatusServiceUnavailable, "server is draining"
	case <-r.Context().Done():
		return nil, http.StatusServiceUnavailable, "client went away while queued"
	}
	if s.draining.Load() {
		<-s.sem
		return nil, http.StatusServiceUnavailable, "server is draining"
	}
	s.met.inFlight.Add(1)
	return func() {
		s.met.inFlight.Add(-1)
		<-s.sem
	}, 0, ""
}

// execute runs one admitted request on the appropriate tier. On success
// (including programs that fail to compile or die at runtime — those are
// data) it returns a response; otherwise a non-zero HTTP status.
func (s *Server) execute(req *RunRequest, id core.ProgramID, reqID string) (resp *RunResponse, errStatus int, errMsg string, retryIn time.Duration) {
	eff := ClampLimits(req.Limits, s.opts.Ceiling)
	wreq := &worker.Request{
		RequestID: reqID,
		Source:    req.Source,
		File:      req.File,
		Stdin:     req.Stdin,
		Backend:   req.Backend,
		Opt:       OptLevel(req.Opt),
		Trace:     req.Trace,
		Race:      req.Race,
		TraceCap:  req.TraceCap,
		Limits:    eff,
	}

	// The native tier gets first refusal: a promoted artifact beats both
	// engines on hot loop-bound programs (BENCH_tiered.json). Trace and
	// race requests stay on the interp tier — native binaries carry no
	// event collector.
	prior := 0
	if s.native != nil && !req.Trace && !req.Race {
		resp, served, attempted := s.runNative(wreq, req, id, reqID)
		if served {
			return resp, 0, "", 0
		}
		prior = attempted // a crashed native attempt counts toward Attempts
	}

	if s.pool != nil {
		key := breakerKey{id: id, engine: req.Backend, opt: wreq.Opt}
		resp, errStatus, errMsg, retryIn, fellThrough := s.runOnPool(wreq, req, key, reqID, prior)
		if !fellThrough {
			return resp, errStatus, errMsg, retryIn
		}
		// Pool exhausted (or closed): degrade to in-process execution
		// rather than queue forever.
		s.met.fallbacks.Add(1)
		s.logf("worker pool exhausted; running req %s in-process (degraded)", reqID)
	}
	return s.runInProcess(wreq, req, id, reqID, prior), 0, "", 0
}

// runNative tries the promoted-artifact tier. served=false means the
// caller should fall through to the pool/in-process tiers (no artifact
// yet, artifact quarantined, or the artifact crashed and was demoted);
// attempted counts the crashed attempt, if any, so the final response's
// Attempts reflects the whole journey.
func (s *Server) runNative(wreq *worker.Request, req *RunRequest, id core.ProgramID, reqID string) (resp *RunResponse, served bool, attempted int) {
	// Without an artifact, Dispatch counts this request as the hotness
	// signal: the server counts requests itself because worker processes
	// keep private compile caches it cannot see into.
	bin, ok := s.promoter.Dispatch(id, req.File, req.Source)
	if !ok {
		return nil, false, 0
	}
	key := breakerKey{id: id, engine: TierNative}
	if _, q := s.quar.Quarantined(key); q {
		// The artifact is circuit-broken but the program itself is fine:
		// skip the native tier rather than 422 the request.
		s.met.nativeSkips.Add(1)
		return nil, false, 0
	}

	stop := make(chan struct{})
	sc := &stopCanceler{ch: stop}
	untrack := s.track(sc)
	defer untrack()

	wresp, err := s.native.Run(bin, wreq, worker.RunInfo{
		Stop: stop,
		OnCrash: func(c worker.Crash) bool {
			_, tripped := s.recordCrash(reqID, key, c)
			return tripped
		},
	})
	if err == nil {
		s.met.nativeRuns.Add(1)
		return s.toRunResponse(wresp, req, TierNative, 1, reqID), true, 0
	}
	if errors.Is(err, worker.ErrCancelled) {
		s.met.runtimeErrors.Add(1)
		return &RunResponse{
			Backend: req.Backend, Opt: OptLevel(req.Opt),
			Isolation: TierNative, Attempts: 1, RequestID: reqID,
			Error: &RunError{Stage: "runtime", Message: "execution cancelled: server is draining"},
		}, true, 0
	}
	var ne *worker.NativeCrashError
	if errors.As(err, &ne) {
		// Demote and retry on the VM tier — transparently, within this
		// same request.
		s.met.nativeDemotions.Add(1)
		s.promoter.Demote(id, ne.Reason)
		s.logf("native artifact crashed (req %s, program %s): %s; demoted, retrying on %s tier",
			reqID, id, ne.Reason, req.Backend)
		return nil, false, 1
	}
	// ErrClosed (drain race): fall through without counting an attempt.
	return nil, false, 0
}

// runOnPool executes on a supervised worker, with crash forensics.
// fellThrough=true means the caller should degrade to in-process. prior
// counts earlier attempts on other tiers (a crashed native run), so
// Attempts in the response reflects the whole journey. Every crash feeds
// the breaker under key; once it trips, the pool stops retrying and the
// request is answered 422.
func (s *Server) runOnPool(wreq *worker.Request, req *RunRequest, key breakerKey, reqID string, prior int) (resp *RunResponse, errStatus int, errMsg string, retryIn time.Duration, fellThrough bool) {
	// Register a canceler so a draining server can abort the worker
	// round-trip (the pool kills the leased worker).
	stop := make(chan struct{})
	sc := &stopCanceler{ch: stop}
	untrack := s.track(sc)
	defer untrack()

	crashes := 0
	quarantined := false
	start := time.Now()
	wresp, err := s.pool.Run(wreq, worker.RunInfo{
		Stop: stop,
		OnCrash: func(c worker.Crash) bool {
			crashes++
			retryIn, quarantined = s.recordCrash(reqID, key, c)
			return quarantined
		},
	})
	wall := time.Since(start)

	if err == nil {
		// Isolation overhead = supervised round-trip minus the work the
		// worker reported; the histogram quantifies the boundary cost.
		exec := time.Duration(wresp.CompileMicros+wresp.RunMicros) * time.Microsecond
		if over := wall - exec; over > 0 {
			s.met.latOverhead.observe(over)
		}
		return s.toRunResponse(wresp, req, TierWorker, prior+crashes+1, reqID), 0, "", 0, false
	}

	if quarantined {
		return nil, http.StatusUnprocessableEntity, "", retryIn, false
	}
	var ce *worker.CrashedError
	switch {
	case errors.As(err, &ce):
		return nil, http.StatusServiceUnavailable,
			fmt.Sprintf("execution crashed %d worker(s); retry later", ce.Attempts), 0, false
	case errors.Is(err, worker.ErrCancelled):
		// Drain killed the attempt: report it like a governor trip, as
		// the in-process path would.
		resp := &RunResponse{
			Backend: req.Backend, Opt: OptLevel(req.Opt),
			Isolation: TierWorker, Attempts: prior + crashes + 1, RequestID: reqID,
			Error: &RunError{Stage: "runtime", Message: "execution cancelled: server is draining"},
		}
		s.met.runtimeErrors.Add(1)
		return resp, 0, "", 0, false
	default: // ErrExhausted, ErrClosed
		return nil, 0, "", 0, true
	}
}

// recordCrash files the forensics for one crash of key's execution
// process and feeds the breaker, reporting whether key is now
// quarantined and for how long.
func (s *Server) recordCrash(reqID string, key breakerKey, c worker.Crash) (time.Duration, bool) {
	s.met.recordCrash(CrashRecord{
		UnixMS:    time.Now().UnixMilli(),
		RequestID: reqID,
		Hash:      key.id.String(),
		PID:       c.PID,
		Attempt:   c.Attempt,
		Reason:    c.Reason,
	})
	return s.quar.Record(key)
}

// runInProcess is the degraded tier: execution in the server's own
// process, with panic recovery so a backend bug costs one request, not
// the service.
func (s *Server) runInProcess(wreq *worker.Request, req *RunRequest, id core.ProgramID, reqID string, prior int) (resp *RunResponse) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Add(1)
			s.logf("panic in in-process execution (req %s): %v", reqID, rec)
			s.met.runtimeErrors.Add(1)
			resp = &RunResponse{
				Backend: req.Backend, Opt: OptLevel(req.Opt),
				Isolation: TierInProc, Attempts: prior + 1, RequestID: reqID,
				Error: &RunError{Stage: "runtime",
					Message: fmt.Sprintf("internal error: execution panicked: %v", rec)},
			}
		}
	}()
	wresp := worker.ExecuteTracked(wreq, id, s.cache, s.track)
	return s.toRunResponse(wresp, req, TierInProc, prior+1, reqID)
}

// toRunResponse converts a wire response into the HTTP body, counting
// the outcome metrics.
func (s *Server) toRunResponse(wresp *worker.Response, req *RunRequest, tier string, attempts int, reqID string) *RunResponse {
	resp := &RunResponse{
		OK:            wresp.OK,
		Backend:       req.Backend,
		Opt:           OptLevel(req.Opt),
		Stdout:        wresp.Stdout,
		CacheHit:      wresp.CacheHit,
		CompileMicros: wresp.CompileMicros,
		RunMicros:     wresp.RunMicros,
		Isolation:     tier,
		Attempts:      attempts,
		RequestID:     reqID,
	}
	switch wresp.ErrStage {
	case "":
		s.met.okRuns.Add(1)
	case "compile":
		s.met.compileErrors.Add(1)
		resp.Error = &RunError{Stage: "compile", Message: wresp.ErrMessage}
	default:
		s.met.runtimeErrors.Add(1)
		resp.Error = &RunError{Stage: wresp.ErrStage, Message: wresp.ErrMessage, Pos: wresp.ErrPos}
	}
	if wresp.ErrStage != "compile" {
		h := s.met.latency(req.Backend)
		if tier == TierNative {
			h = &s.met.latNative
		}
		h.observe(time.Duration(wresp.RunMicros) * time.Microsecond)
	}
	if wresp.Trace != nil {
		resp.Trace = &TraceSummary{
			Threads:      wresp.Trace.Threads,
			Steps:        wresp.Trace.Steps,
			LockAcquires: wresp.Trace.LockAcquires,
			LockWaits:    wresp.Trace.LockWaits,
			Outputs:      wresp.Trace.Outputs,
			Truncated:    wresp.Trace.Truncated,
			Dropped:      wresp.Trace.Dropped,
		}
	}
	if req.Race && wresp.ErrStage != "compile" {
		resp.Races = wresp.Races
		if resp.Races == nil {
			resp.Races = []string{}
		}
	}
	return resp
}

// track registers a live execution's canceler for the drain path and
// returns its untrack func.
func (s *Server) track(c worker.Canceler) func() {
	id := s.nextID.Add(1)
	s.mu.Lock()
	s.running[id] = c
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.running, id)
		s.mu.Unlock()
	}
}

// stopCanceler adapts a stop channel to the Canceler interface, for
// cancelling worker round-trips on drain.
type stopCanceler struct {
	once sync.Once
	ch   chan struct{}
}

func (sc *stopCanceler) Cancel() { sc.once.Do(func() { close(sc.ch) }) }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleLive is the liveness probe: 200 for as long as the process can
// serve HTTP at all, draining or not. Restart the process only when
// this fails.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// handleReady is the readiness probe (also the legacy /healthz): 503 as
// soon as a drain is announced, before admissions close — routers stop
// sending traffic while in-flight runs are still finishing untouched.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.notReady.Load() || s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Metrics returns a point-in-time snapshot of the server counters.
func (s *Server) Metrics() MetricsSnapshot {
	st := s.cache.Stats()
	cm := CacheMetrics{Hits: st.Hits, Misses: st.Misses}
	if total := st.Hits + st.Misses; total > 0 {
		cm.HitRate = float64(st.Hits) / float64(total)
	}
	snap := MetricsSnapshot{
		Draining:      s.draining.Load(),
		Ready:         !(s.notReady.Load() || s.draining.Load()),
		Isolation:     s.opts.Isolation,
		InFlight:      s.met.inFlight.Load(),
		QueueDepth:    s.met.queueDepth.Load(),
		Requests:      s.met.requests.Load(),
		OKRuns:        s.met.okRuns.Load(),
		CompileErrors: s.met.compileErrors.Load(),
		RuntimeErrors: s.met.runtimeErrors.Load(),
		Rejected422:   s.met.rejected422.Load(),
		Rejected429:   s.met.rejected429.Load(),
		Rejected503:   s.met.rejected503.Load(),
		BadRequests:   s.met.badRequests.Load(),
		Panics:        s.met.panics.Load(),
		Fallbacks:     s.met.fallbacks.Load(),
		Cache:         cm,
		Latency: map[string]HistogramSnapshot{
			BackendInterp: s.met.latInterp.snapshot(),
			BackendVM:     s.met.latVM.snapshot(),
		},
		WorkerCrashes: s.met.crashRecords(),
	}
	ss := s.sessions.Snapshot()
	snap.Sessions = &ss
	snap.Latency["stream_lag"] = s.met.latStreamLag.snapshot()
	poolQuar, nativeQuar := s.quar.Counts()
	if s.pool != nil {
		ps := s.pool.Stats()
		ps.Quarantined = poolQuar
		snap.Worker = &ps
		snap.Latency["isolation_overhead"] = s.met.latOverhead.snapshot()
	}
	if s.native != nil {
		ns := s.native.Stats()
		ns.Quarantined = nativeQuar
		snap.Native = &ns
		pr := s.promoter.Stats()
		snap.Promote = &pr
		snap.Promotions = s.met.promotions.Load()
		snap.NativeRuns = s.met.nativeRuns.Load()
		snap.NativeDemotions = s.met.nativeDemotions.Load()
		snap.NativeSkips = s.met.nativeSkips.Load()
		snap.Latency[TierNative] = s.met.latNative.snapshot()
	}
	return snap
}

// Drain gracefully shuts execution down: readiness flips to 503 first
// (and holds for DrainAnnounce so routers notice), then new requests are
// rejected, queued requests are woken and rejected, in-flight executions
// get DrainGrace to finish naturally, whatever still runs is cancelled
// through the governor trip path — which wakes threads parked on Tetra
// locks, so no execution can hold the drain hostage — and finally every
// worker process is killed and reaped. Drain returns once every
// execution has released its slot (or stop is closed / fires first, in
// which case the error reports how many were abandoned).
func (s *Server) Drain(stop <-chan struct{}) error {
	s.drainOnce.Do(func() {
		s.notReady.Store(true)
		if d := s.opts.DrainAnnounce; d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-stop:
			}
		}
		s.draining.Store(true)
		close(s.drainCh)
		// Readiness flipped above, before any eviction: routers have
		// stopped sending new sessions by the time streams start closing.
		// Every live session gets a terminal "drain" frame and its
		// goroutines are joined (bounded by the guard grace).
		s.sessions.CloseAll(session.ReasonDrain)
	})
	defer func() {
		s.sessions.Close()
		if s.pool != nil {
			s.pool.Close()
		}
		if s.native != nil {
			// Order matters: stop the builder first so no artifact lands
			// after the runner has killed its children.
			s.promoter.Close()
			s.native.Close()
		}
	}()
	grace := time.NewTimer(s.opts.DrainGrace)
	defer grace.Stop()
	if s.waitIdle(grace.C, stop) {
		return nil
	}
	s.cancelRunning()
	if s.waitIdle(nil, stop) {
		return nil
	}
	return fmt.Errorf("drain abandoned with %d execution(s) still in flight", s.met.inFlight.Load())
}

// waitIdle polls until no execution is in flight; either channel firing
// aborts the wait. Polling (rather than a WaitGroup) sidesteps the
// Add-concurrent-with-Wait hazard on the admission path.
func (s *Server) waitIdle(giveUp <-chan time.Time, stop <-chan struct{}) bool {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.met.inFlight.Load() == 0 {
			return true
		}
		select {
		case <-tick.C:
		case <-giveUp:
			return false
		case <-stop:
			return false
		}
	}
}

// cancelRunning trips every live execution's stop path: governors for
// in-process runs, round-trip aborts (worker kills) for pooled runs.
func (s *Server) cancelRunning() {
	s.mu.Lock()
	cs := make([]worker.Canceler, 0, len(s.running))
	for _, c := range s.running {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	for _, c := range cs {
		c.Cancel()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// RequestIDFrom accepts a well-formed client X-Request-ID or generates
// one, so every response and every crash-forensics record carries a
// correlation handle. Exported so the front router derives IDs at the
// edge with identical rules and forwards them here.
func RequestIDFrom(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id != "" && len(id) <= 128 && printableToken(id) {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return hex.EncodeToString(b[:])
	}
	return fmt.Sprintf("req-%d", time.Now().UnixNano())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client hanging up mid-body is not our error
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: status})
}

func printableToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= 0x20 || s[i] >= 0x7f {
			return false
		}
	}
	return true
}
