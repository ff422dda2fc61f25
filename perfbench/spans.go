package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share ReqID (the X-Request-ID the load generator sets); Parent names
// the layer whose span encloses this one on the same request.
type span struct {
	Name   string             `json:"name"`
	Parent string             `json:"parent,omitempty"`
	ReqID  string             `json:"req_id,omitempty"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	Labels map[string]string  `json:"labels,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the traced run; a nil recorder
// records nothing, which is how the untraced runs stay free of it. A
// traced run switches recording on only for its traced phases.
type recorder struct {
	t0      time.Time
	enabled atomic.Bool
	mu      sync.Mutex
	spans   []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) on() bool { return r != nil && r.enabled.Load() }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

func (r *recorder) add(s span) {
	if !r.on() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs f and records it as a span named name: a direct call into
// one layer by the layer probes.
func (r *recorder) timed(name string, f func()) time.Duration {
	if !r.on() {
		start := time.Now()
		f()
		return time.Since(start)
	}
	start := r.now()
	f()
	end := r.now()
	r.add(span{Name: name, Parent: "probe", Start: start, End: end})
	return end - start
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// wrapHandler records a span around every request a layer's handler
// serves, keyed by the request's X-Request-ID.
func (r *recorder) wrapHandler(name, parent, id string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on() {
			h.ServeHTTP(w, req)
			return
		}
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(span{Name: name, Parent: parent, ReqID: req.Header.Get("X-Request-ID"),
			Start: start, End: r.now(), Labels: map[string]string{"node": id}})
	})
}

// dump writes the spans as JSON lines to path.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfRow is one line of the self-time table.
type selfRow struct {
	layer string
	self  []float64 // µs per occurrence
}

// printSelfTable renders per-layer self time: total, share of all self
// time on the request path, and the per-occurrence median.
func printSelfTable(w io.Writer, title string, rows []selfRow) {
	total := 0.0
	sums := make(map[string]float64)
	for _, r := range rows {
		for _, v := range r.self {
			sums[r.layer] += v
			total += v
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return sums[rows[i].layer] > sums[rows[j].layer] })
	fmt.Fprintf(w, "# self time, %s\n", title)
	fmt.Fprintf(w, "#   %-22s %12s %7s %10s %8s\n", "layer", "total ms", "share", "p50 us", "count")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = sums[r.layer] / total
		}
		fmt.Fprintf(w, "#   %-22s %12.1f %6.1f%% %10.1f %8d\n", r.layer, sums[r.layer]/1000,
			100*share, median(r.self), len(r.self))
	}
}
