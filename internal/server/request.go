package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
	"unicode/utf8"

	"repro/internal/bytecode"
	"repro/internal/guard"
)

// Backend names accepted in RunRequest.Backend.
const (
	BackendInterp = "interp" // tree-walking interpreter: the debuggable path, supports trace/race
	BackendVM     = "vm"     // bytecode VM: the fast path
)

// RunRequest is the JSON body of POST /run: one untrusted Tetra program to
// compile and execute.
type RunRequest struct {
	// Source is the Tetra program text (required).
	Source string `json:"source"`
	// File names the program in positions and error messages; defaults to
	// "prog.ttr".
	File string `json:"file,omitempty"`
	// Stdin is the program's input for read_int and friends.
	Stdin string `json:"stdin,omitempty"`
	// Backend selects the execution engine: "interp" (default) or "vm".
	Backend string `json:"backend,omitempty"`
	// Opt is the bytecode optimization level for the vm backend (0, 1 or
	// 2, the CLI's -O convention). Omitted selects full optimization.
	Opt *int `json:"opt,omitempty"`
	// Limits tightens the per-request resource budget. Every field is
	// clamped by the server-wide ceiling: a request can only lower a
	// budget, never raise it past what the operator configured.
	Limits *LimitSpec `json:"limits,omitempty"`
	// Trace asks for an execution-event summary (interp backend only).
	Trace bool `json:"trace,omitempty"`
	// Race additionally records shared-variable accesses and runs the
	// lockset race detector (interp backend only; slower).
	Race bool `json:"race,omitempty"`
	// TraceCap tightens the trace ring's retention bound for this run
	// (0 = server default). The collector keeps the most recent TraceCap
	// events; an overflowing run reports trace.truncated/dropped instead
	// of growing server memory without bound.
	TraceCap int `json:"trace_cap,omitempty"`
}

// LimitSpec is the wire form of guard.Limits. Zero or omitted fields
// inherit the server ceiling.
type LimitSpec struct {
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
	MaxSteps       int64 `json:"max_steps,omitempty"`
	MaxThreads     int64 `json:"max_threads,omitempty"`
	MaxOutputBytes int64 `json:"max_output_bytes,omitempty"`
	MaxAllocCells  int64 `json:"max_alloc_cells,omitempty"`
}

// RunResponse is the JSON body answering POST /run. A program that fails to
// compile or dies at runtime is still a successful HTTP exchange: the
// status is 200 and Error carries the diagnostic, exactly as the CLI would
// print it.
type RunResponse struct {
	OK bool `json:"ok"`
	// Backend and Opt echo what actually executed.
	Backend string `json:"backend"`
	Opt     int    `json:"opt"`
	// Stdout is everything the program printed (bounded by the output
	// budget).
	Stdout string `json:"stdout"`
	// Error is set when compilation or execution failed.
	Error *RunError `json:"error,omitempty"`
	// CacheHit reports whether the compile was served from the shared
	// compile cache.
	CacheHit bool `json:"cache_hit"`
	// CompileMicros and RunMicros are the stage timings.
	CompileMicros int64 `json:"compile_us"`
	RunMicros     int64 `json:"run_us"`
	// Isolation reports which tier executed the program: "worker" (a
	// supervised worker process), "inproc" (the server process), or
	// "native" (a promoted gogen-compiled binary; Backend still echoes
	// the engine the client asked for).
	Isolation string `json:"isolation,omitempty"`
	// Attempts counts execution attempts: 1 normally, more when worker
	// crashes forced retries.
	Attempts int `json:"attempts,omitempty"`
	// RequestID echoes the correlation ID (client-provided or generated).
	RequestID string `json:"request_id,omitempty"`
	// Trace summarizes the execution events when the request asked for
	// tracing.
	Trace *TraceSummary `json:"trace,omitempty"`
	// Races lists the detected lockset violations when the request asked
	// for race detection (empty slice = analysis ran, found none).
	Races []string `json:"races,omitempty"`
}

// RunError is a compile or runtime diagnostic. Message is the full error
// text as the CLI prints it (including the position prefix); Pos is the
// bare "file:line:col" when one is known.
type RunError struct {
	Stage   string `json:"stage"` // "compile" or "runtime"
	Message string `json:"message"`
	Pos     string `json:"pos,omitempty"`
}

// TraceSummary aggregates the event stream of one traced run. When the
// run emitted more events than the trace ring retains, Truncated is true
// and Dropped counts the discarded prefix: the summary covers the tail.
type TraceSummary struct {
	Threads      int   `json:"threads"`
	Steps        int   `json:"steps"`
	LockAcquires int   `json:"lock_acquires"`
	LockWaits    int   `json:"lock_waits"`
	Outputs      int   `json:"outputs"`
	Truncated    bool  `json:"truncated,omitempty"`
	Dropped      int64 `json:"dropped,omitempty"`
}

// ErrorResponse is the JSON body of every non-200 answer (bad request,
// admission rejection, draining).
type ErrorResponse struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// MaxOptLevel is the highest bytecode optimization level a request may ask
// for (the CLI's -O 2).
const MaxOptLevel = bytecode.O2

// DecodeRunRequest parses and validates a POST /run body. It rejects
// unknown fields (catching client typos like "sourec"), non-UTF-8 text,
// negative or nonsensical limit values, unknown backends and out-of-range
// optimization levels. On success the request is normalized: Backend is
// never empty and File has its default.
func DecodeRunRequest(data []byte) (*RunRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid request body: %v", err)
	}
	// A second JSON value after the first is a malformed request, not
	// trailing whitespace.
	if dec.More() {
		return nil, fmt.Errorf("invalid request body: unexpected data after request object")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks the request invariants and normalizes defaults in place.
func (r *RunRequest) Validate() error {
	if r.Source == "" {
		return fmt.Errorf("source is required")
	}
	if !utf8.ValidString(r.Source) {
		return fmt.Errorf("source is not valid UTF-8")
	}
	if !utf8.ValidString(r.Stdin) {
		return fmt.Errorf("stdin is not valid UTF-8")
	}
	if !utf8.ValidString(r.File) {
		return fmt.Errorf("file is not valid UTF-8")
	}
	if r.File == "" {
		r.File = "prog.ttr"
	}
	switch r.Backend {
	case "":
		r.Backend = BackendInterp
	case BackendInterp, BackendVM:
	default:
		// "native" is deliberately not requestable: the native tier is a
		// server-side promotion decision, not a client-visible engine.
		return fmt.Errorf("unknown backend %q (want %q or %q; the native tier promotes hot programs automatically)",
			r.Backend, BackendInterp, BackendVM)
	}
	if r.Opt != nil && (*r.Opt < 0 || *r.Opt > MaxOptLevel) {
		return fmt.Errorf("opt level %d out of range [0, %d]", *r.Opt, MaxOptLevel)
	}
	if (r.Trace || r.Race) && r.Backend != BackendInterp {
		return fmt.Errorf("trace and race require the %q backend", BackendInterp)
	}
	if r.TraceCap < 0 {
		return fmt.Errorf("trace_cap must be >= 0, got %d", r.TraceCap)
	}
	if l := r.Limits; l != nil {
		for _, f := range []struct {
			name string
			v    int64
		}{
			{"timeout_ms", l.TimeoutMS},
			{"max_steps", l.MaxSteps},
			{"max_threads", l.MaxThreads},
			{"max_output_bytes", l.MaxOutputBytes},
			{"max_alloc_cells", l.MaxAllocCells},
		} {
			if f.v < 0 {
				return fmt.Errorf("limits.%s must be >= 0, got %d", f.name, f.v)
			}
		}
	}
	return nil
}

// OptLevel resolves a request's "opt" field to the bytecode level it
// runs at: omitted selects bytecode.DefaultLevel. It is the one place the
// default is decided — the front router calls it to place a request on
// the replica that will compile it at this level. An out-of-range level
// (which Validate rejects) resolves to the default too.
func OptLevel(opt *int) int {
	if opt == nil || *opt < 0 || *opt > MaxOptLevel {
		return bytecode.DefaultLevel
	}
	return *opt
}

// ClampLimits combines a request's limit overrides with the server-wide
// ceiling. The rule: each budget starts at the ceiling; a request value
// replaces it only when it is stricter (lower, with 0 meaning "inherit").
// When a ceiling field is unlimited (0) the request value applies as given
// — the operator chose not to bound that axis.
func ClampLimits(req *LimitSpec, ceiling guard.Limits) guard.Limits {
	eff := ceiling
	if req == nil {
		return eff
	}
	clamp := func(v, ceil int64) int64 {
		if v <= 0 {
			return ceil
		}
		if ceil > 0 && v > ceil {
			return ceil
		}
		return v
	}
	eff.Deadline = time.Duration(clamp(int64(time.Duration(req.TimeoutMS)*time.Millisecond), int64(ceiling.Deadline)))
	eff.MaxSteps = clamp(req.MaxSteps, ceiling.MaxSteps)
	eff.MaxThreads = clamp(req.MaxThreads, ceiling.MaxThreads)
	eff.MaxOutputBytes = clamp(req.MaxOutputBytes, ceiling.MaxOutputBytes)
	eff.MaxAllocCells = clamp(req.MaxAllocCells, ceiling.MaxAllocCells)
	return eff
}
