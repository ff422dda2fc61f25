package worker

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
)

// NativeRunner executes promoted native artifacts — Tetra programs
// compiled via gogen and `go build` (internal/promote). Unlike pooled
// workers, native binaries are one-shot: gort's governor state, stdin
// reader and exit-on-error discipline are process-global, so each
// request gets a fresh process whose whole life is that request. That
// keeps the isolation story strictly stronger than the pool's — a
// crashing artifact takes down nothing but its own request's process —
// at the cost of a fork+exec per request, which the tier only pays for
// programs hot enough that native execution wins anyway
// (BENCH_tiered.json).
//
// The runner owns the same supervision duties the pool has: deadline
// overrun kills, crash classification (a gort "runtime error:" exit is
// data; any other death is a crash), crash reporting to the caller's
// quarantine breaker, and zero-orphan accounting (Stats().Reaped ==
// Stats().Spawns after Close).
type NativeRunner struct {
	opts NativeOptions

	mu     sync.Mutex
	closed bool
	live   map[*exec.Cmd]struct{}
	wg     sync.WaitGroup

	spawns, reaped, runs, crashes atomic.Int64
}

// NativeOptions configures a NativeRunner.
type NativeOptions struct {
	// PipeMargin is wall-clock grace added to the request's deadline
	// before the runner declares the artifact stuck and kills it
	// (default 2s). The binary's in-process governor (gort, armed via
	// TETRA_* env) should always trip first.
	PipeMargin time.Duration
	// AttemptTimeout bounds a run whose request carries no deadline
	// (default 60s).
	AttemptTimeout time.Duration
	// Faults arms the native-tier injection point (fault.NativeKill).
	Faults *fault.Injector
	// Logf, when set, receives supervision events.
	Logf func(format string, args ...any)
}

func (o NativeOptions) withDefaults() NativeOptions {
	if o.PipeMargin <= 0 {
		o.PipeMargin = 2 * time.Second
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 60 * time.Second
	}
	return o
}

// NativeStats is a point-in-time snapshot of the native tier's
// process accounting.
type NativeStats struct {
	Runs    int64 `json:"runs"`
	Crashes int64 `json:"crashes"`
	Spawns  int64 `json:"spawns"`
	Reaped  int64 `json:"reaped"`
	// Quarantined counts programs whose native path is quarantined;
	// like Stats.Quarantined it is filled in by the breaker's owner.
	Quarantined int `json:"quarantined"`
}

// NativeCrashError: the artifact process died abnormally (not a Tetra
// runtime error). The caller should demote the program back to the VM
// tier and retry there.
type NativeCrashError struct {
	Reason string
}

func (e *NativeCrashError) Error() string {
	return fmt.Sprintf("native artifact crashed: %s", e.Reason)
}

// NewNativeRunner returns a runner ready to execute artifacts.
func NewNativeRunner(opts NativeOptions) *NativeRunner {
	return &NativeRunner{
		opts: opts.withDefaults(),
		live: make(map[*exec.Cmd]struct{}),
	}
}

// Stats snapshots the runner counters.
func (r *NativeRunner) Stats() NativeStats {
	return NativeStats{
		Runs:    r.runs.Load(),
		Crashes: r.crashes.Load(),
		Spawns:  r.spawns.Load(),
		Reaped:  r.reaped.Load(),
	}
}

// limitEnv builds the child environment: the inherited environment with
// every guard knob stripped and re-derived from the request's clamped
// limits. This is deliberate hygiene — the serving process may itself
// run under TETRA_* budgets (or an operator may export stale ones), and
// a native child inheriting those verbatim would execute under the
// wrong budget. Scheduling knobs (TETRA_WORKERS, TETRA_GRAIN) are
// operator configuration, not request budget, and pass through.
func limitEnv(lim guard.Limits) []string {
	stripped := []string{"TETRA_TIMEOUT=", "TETRA_MAX_STEPS=", "TETRA_MAX_THREADS=",
		"TETRA_MAX_OUTPUT=", "TETRA_MAX_ALLOC=", EnvWorker + "="}
	env := make([]string, 0, len(os.Environ())+5)
	for _, kv := range os.Environ() {
		drop := false
		for _, p := range stripped {
			if strings.HasPrefix(kv, p) {
				drop = true
				break
			}
		}
		if !drop {
			env = append(env, kv)
		}
	}
	if lim.Deadline > 0 {
		env = append(env, fmt.Sprintf("TETRA_TIMEOUT=%s", lim.Deadline))
	}
	if lim.MaxSteps > 0 {
		env = append(env, fmt.Sprintf("TETRA_MAX_STEPS=%d", lim.MaxSteps))
	}
	if lim.MaxThreads > 0 {
		env = append(env, fmt.Sprintf("TETRA_MAX_THREADS=%d", lim.MaxThreads))
	}
	if lim.MaxOutputBytes > 0 {
		env = append(env, fmt.Sprintf("TETRA_MAX_OUTPUT=%d", lim.MaxOutputBytes))
	}
	if lim.MaxAllocCells > 0 {
		env = append(env, fmt.Sprintf("TETRA_MAX_ALLOC=%d", lim.MaxAllocCells))
	}
	return env
}

// Run executes one request in a fresh process of the given artifact
// binary. A Tetra runtime error (gort exit status 1 with a "runtime
// error:" diagnostic) is data and comes back as a well-formed Response;
// any other death returns a *NativeCrashError after reporting the crash
// to info.OnCrash. Closing info.Stop kills the child (drain).
func (r *NativeRunner) Run(bin string, req *Request, info RunInfo) (*Response, error) {
	timeout := r.opts.AttemptTimeout
	if req.Limits.Deadline > 0 {
		timeout = req.Limits.Deadline + r.opts.PipeMargin
	}

	cmd := exec.Command(bin)
	// Without WaitDelay, an artifact that leaked its stdout pipe to a
	// forked child would hold Wait (and this request's goroutine) hostage
	// until that child exits, long after the artifact itself was killed.
	cmd.WaitDelay = r.opts.PipeMargin
	cmd.Env = limitEnv(req.Limits)
	cmd.Stdin = strings.NewReader(req.Stdin)
	var out bytes.Buffer
	tail := &tailBuffer{max: 2048}
	cmd.Stdout = &out
	cmd.Stderr = tail

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if err := cmd.Start(); err != nil {
		r.mu.Unlock()
		return nil, r.crash(req, info, cmd, fmt.Sprintf("artifact spawn failed: %v", err), "")
	}
	r.live[cmd] = struct{}{}
	r.spawns.Add(1)
	r.runs.Add(1)
	r.wg.Add(1)
	r.mu.Unlock()

	// Chaos hook: murder the artifact mid-request to drive the
	// demotion path.
	if _, ok := r.opts.Faults.Fire(fault.NativeKill); ok {
		_ = cmd.Process.Kill()
	}

	done := make(chan error, 1)
	go func() {
		defer r.wg.Done()
		err := cmd.Wait()
		r.reaped.Add(1)
		r.mu.Lock()
		delete(r.live, cmd)
		r.mu.Unlock()
		done <- err
	}()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	start := time.Now()
	var waitErr error
	select {
	case waitErr = <-done:
	case <-timer.C:
		_ = cmd.Process.Kill()
		<-done
		return nil, r.crash(req, info, cmd,
			fmt.Sprintf("attempt deadline overrun (%s): artifact stuck", timeout), tail.Tail())
	case <-info.Stop:
		_ = cmd.Process.Kill()
		<-done
		return nil, ErrCancelled
	}
	wall := time.Since(start)

	resp := &Response{
		Seq:       req.Seq,
		Stdout:    out.String(),
		CacheHit:  true, // the artifact IS the cached compile
		RunMicros: wall.Microseconds(),
	}
	if waitErr == nil {
		resp.OK = true
		return resp, nil
	}

	// Exit status 1 with a gort diagnostic is a Tetra runtime error —
	// the program failed, not the artifact. Anything else (signals,
	// other exit codes, Go runtime fatals) is a crash.
	var ee *exec.ExitError
	if errors.As(waitErr, &ee) && ee.ExitCode() == 1 {
		if msg, ok := runtimeErrLine(tail.Tail()); ok {
			resp.ErrStage = "runtime"
			resp.ErrMessage = msg
			return resp, nil
		}
	}
	return nil, r.crash(req, info, cmd, fmt.Sprintf("artifact died: %v", waitErr), tail.Tail())
}

// crash accounts one artifact death: counters, forensics, and the
// report to the caller's breaker.
func (r *NativeRunner) crash(req *Request, info RunInfo, cmd *exec.Cmd, reason, stderrTail string) error {
	r.crashes.Add(1)
	pid := 0
	if cmd.Process != nil {
		pid = cmd.Process.Pid
	}
	if info.OnCrash != nil {
		info.OnCrash(Crash{PID: pid, Attempt: 1, Reason: reason, StderrTail: stderrTail})
	}
	r.logf("native crash: pid=%d req=%s reason=%q", pid, req.RequestID, reason)
	return &NativeCrashError{Reason: reason}
}

// runtimeErrLine extracts the first "runtime error: ..." line from an
// artifact's stderr — the diagnostic Catch prints before exiting 1.
func runtimeErrLine(stderr string) (string, bool) {
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "runtime error:") {
			return strings.TrimSpace(line), true
		}
	}
	return "", false
}

// Close kills any still-running artifact processes and waits until all
// are reaped — zero orphans, matching the pool's discipline.
func (r *NativeRunner) Close() {
	r.mu.Lock()
	r.closed = true
	procs := make([]*exec.Cmd, 0, len(r.live))
	for cmd := range r.live {
		procs = append(procs, cmd)
	}
	r.mu.Unlock()
	for _, cmd := range procs {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}
	r.wg.Wait()
}

func (r *NativeRunner) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}
