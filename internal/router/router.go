package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// Routing policies for Options.Policy.
const (
	// PolicyAffinity consistent-hashes the program content-hash onto the
	// ring: every program's traffic lands on one warm replica. The default.
	PolicyAffinity = "affinity"
	// PolicyRandom sends each request to a uniformly random ready replica
	// — the control arm of BENCH_cluster.json, and a sane fallback when
	// affinity is undesirable (e.g. one pathological hot program).
	PolicyRandom = "random"
)

// Backend names one tetrad replica the router fronts.
type Backend struct {
	// ID labels the replica in metrics, logs and the X-Tetra-Backend
	// response header. Defaults to the URL's host:port.
	ID string
	// URL is the replica's base URL, e.g. "http://10.0.0.7:8714".
	URL string
	// Weight scales the replica's share of the ring (capacity-weighted
	// sharding); < 1 is treated as 1.
	Weight int
}

// Options configures a Router.
type Options struct {
	// Backends is the replica fleet. At least one is required.
	Backends []Backend
	// Policy selects PolicyAffinity (default) or PolicyRandom.
	Policy string
	// VNodes is the virtual nodes per unit weight (default DefaultVNodes).
	VNodes int
	// ProbeInterval is how often each backend's /healthz/ready is polled
	// (default 250ms). A draining replica flips readiness before its
	// admissions close, so one probe interval bounds how long the ring
	// keeps sending to it.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readiness probe (default ProbeInterval,
	// floor 100ms).
	ProbeTimeout time.Duration
	// MaxInFlight bounds concurrently-proxied requests per backend;
	// overflow spills to the next ring node. Default 128.
	MaxInFlight int
	// MaxRetries bounds connection-failure retries per request across
	// ring nodes (spillover skips are not retries and are bounded by the
	// fleet size). Default 2.
	MaxRetries int
	// MaxBodyBytes bounds the request body (default 4 MiB, matching
	// tetrad).
	MaxBodyBytes int64
	// MaxReplyBytes bounds a buffered backend reply (default 16 MiB).
	// Streaming (SSE) replies are not buffered and not bounded.
	MaxReplyBytes int64
	// MaxSessionRoutes bounds the sticky session→backend table (default
	// 4096; oldest routes evict first).
	MaxSessionRoutes int
	// DrainGrace is how long Drain waits for in-flight proxies (default
	// 10s).
	DrainGrace time.Duration
	// Logf, when set, receives operational events: membership flips,
	// connection failures, retries.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Policy == "" {
		o.Policy = PolicyAffinity
	}
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbeInterval
		if o.ProbeTimeout < 100*time.Millisecond {
			o.ProbeTimeout = 100 * time.Millisecond
		}
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 128
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 4 << 20
	}
	if o.MaxReplyBytes <= 0 {
		o.MaxReplyBytes = 16 << 20
	}
	if o.MaxSessionRoutes <= 0 {
		o.MaxSessionRoutes = 4096
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 10 * time.Second
	}
	return o
}

// backend is one replica's runtime state.
type backend struct {
	id     string
	base   *url.URL
	weight int
	ready  atomic.Bool
	sem    chan struct{} // in-flight bound
}

func (b *backend) tryAcquire() bool {
	select {
	case b.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (b *backend) release() { <-b.sem }

// Router is the tetrarouter HTTP handler. Create with New; backends
// join the ring as their first readiness probe succeeds. Safe for
// concurrent use.
type Router struct {
	opts     Options
	ring     *Ring
	backends map[string]*backend
	order    []string // config order, for the random policy
	client   *http.Client
	probeC   *http.Client
	met      rmetrics

	rngMu sync.Mutex
	rng   *mrand.Rand

	sessMu    sync.Mutex
	sessRoute map[string]string // session id → backend id
	sessFIFO  []string

	inFlight  atomic.Int64
	draining  atomic.Bool
	stopCh    chan struct{}
	drainOnce sync.Once
	probeWG   sync.WaitGroup
}

// New returns a Router fronting opts.Backends. The ring starts empty:
// replicas are admitted by their first successful readiness probe, so a
// router booted against a dead fleet serves well-formed 503s rather
// than connection errors.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("router: at least one backend is required")
	}
	switch opts.Policy {
	case PolicyAffinity, PolicyRandom:
	default:
		return nil, fmt.Errorf("router: unknown policy %q (want %q or %q)", opts.Policy, PolicyAffinity, PolicyRandom)
	}
	rt := &Router{
		opts:      opts,
		ring:      NewRing(opts.VNodes),
		backends:  make(map[string]*backend, len(opts.Backends)),
		client:    &http.Client{}, // no overall timeout: /run is bounded by the backend sandbox, SSE streams are unbounded
		probeC:    &http.Client{Timeout: opts.ProbeTimeout},
		rng:       mrand.New(mrand.NewSource(time.Now().UnixNano())),
		sessRoute: make(map[string]string),
		stopCh:    make(chan struct{}),
	}
	for _, cfg := range opts.Backends {
		u, err := url.Parse(cfg.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: bad backend URL %q", cfg.URL)
		}
		id := cfg.ID
		if id == "" {
			id = u.Host
		}
		if _, dup := rt.backends[id]; dup {
			return nil, fmt.Errorf("router: duplicate backend id %q", id)
		}
		w := cfg.Weight
		if w < 1 {
			w = 1
		}
		b := &backend{id: id, base: u, weight: w, sem: make(chan struct{}, opts.MaxInFlight)}
		rt.backends[id] = b
		rt.order = append(rt.order, id)
		rt.met.backend(id) // pre-create so /metrics lists the full fleet from boot
	}
	for _, id := range rt.order {
		rt.probeWG.Add(1)
		go rt.probeLoop(rt.backends[id])
	}
	return rt, nil
}

// Ring exposes the hash ring (for tests and the cluster benchmark).
func (rt *Router) Ring() *Ring { return rt.ring }

// Options returns the effective (defaulted) options.
func (rt *Router) Options() Options { return rt.opts }

// probeLoop keeps one backend's ring membership in sync with its
// readiness probe.
func (rt *Router) probeLoop(b *backend) {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		rt.probeOnce(b)
		select {
		case <-t.C:
		case <-rt.stopCh:
			return
		}
	}
}

func (rt *Router) probeOnce(b *backend) {
	req, err := http.NewRequest(http.MethodGet, b.base.String()+"/healthz/ready", nil)
	if err != nil {
		return
	}
	ready := false
	if resp, err := rt.probeC.Do(req); err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		ready = resp.StatusCode == http.StatusOK
	}
	rt.setReady(b, ready, "probe")
}

// setReady records a readiness transition and updates the ring.
func (rt *Router) setReady(b *backend, ready bool, why string) {
	if b.ready.Swap(ready) == ready {
		return
	}
	rt.met.membership.Add(1)
	if ready {
		rt.ring.Add(b.id, b.weight)
		rt.logf("backend %s joined the ring (%s)", b.id, why)
	} else {
		rt.ring.Remove(b.id)
		rt.logf("backend %s left the ring (%s)", b.id, why)
	}
}

// ServeHTTP routes the front-door endpoints.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/run":
		rt.handleProxy(w, r, false)
	case path == "/session" && r.Method == http.MethodPost:
		rt.handleProxy(w, r, true)
	case strings.HasPrefix(path, "/session/"):
		rt.handleSticky(w, r)
	case path == "/metrics":
		writeJSON(w, http.StatusOK, rt.Metrics())
	case path == "/healthz/live":
		writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
	case path == "/healthz" || path == "/healthz/ready":
		rt.handleReady(w)
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such endpoint %q", path))
	}
}

func (rt *Router) handleReady(w http.ResponseWriter) {
	if rt.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if rt.ring.Len() == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no ready backend"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// programKey derives the routing key for a request body. Well-formed
// bodies route by the compile-cache key (core.CacheKey: source content
// hash + opt level + IRVersion) so a program always lands on the replica
// whose cache is warm on it; anything else routes by a hash of the raw
// bytes — the backend, not the router, owns rejecting it, and identical
// garbage at least routes consistently.
func programKey(body []byte) string {
	var req struct {
		Source string `json:"source"`
		File   string `json:"file"`
		Opt    *int   `json:"opt"`
	}
	if err := json.Unmarshal(body, &req); err == nil && req.Source != "" {
		file := req.File
		if file == "" {
			file = "prog.ttr"
		}
		return core.CacheKey(file, req.Source, server.OptLevel(req.Opt))
	}
	return "raw:" + core.CacheKey("raw", string(body), 0)
}

// handleProxy serves /run and POST /session: pick the candidate order by
// policy, spill past full or unready nodes, retry connection failures on
// the next ring node, and relay the first backend response verbatim.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request, isSessionCreate bool) {
	reqID := server.RequestIDFrom(r)
	w.Header().Set("X-Request-ID", reqID)
	rt.met.requests.Add(1)
	if rt.draining.Load() {
		rt.met.rejected503.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(1+mrand.Intn(3)))
		writeError(w, http.StatusServiceUnavailable, "router is draining")
		return
	}
	rt.inFlight.Add(1)
	defer rt.inFlight.Add(-1)

	body, err := io.ReadAll(io.LimitReader(r.Body, rt.opts.MaxBodyBytes+1))
	if err != nil {
		rt.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	if int64(len(body)) > rt.opts.MaxBodyBytes {
		rt.met.badRequests.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", rt.opts.MaxBodyBytes))
		return
	}

	var candidates []string
	if rt.opts.Policy == PolicyRandom {
		candidates = rt.randomOrder()
	} else {
		candidates = rt.ring.Lookup(programKey(body), 0)
	}
	rt.tryCandidates(w, r, reqID, body, candidates, isSessionCreate)
}

// handleSticky serves /session/{id}/...: per-session endpoints must hit
// the replica that owns the session's state, so they route by the
// session table recorded at create time — never by hash, never with
// spillover.
func (rt *Router) handleSticky(w http.ResponseWriter, r *http.Request) {
	reqID := server.RequestIDFrom(r)
	w.Header().Set("X-Request-ID", reqID)
	rt.met.requests.Add(1)
	rt.inFlight.Add(1)
	defer rt.inFlight.Add(-1)

	rest := strings.TrimPrefix(r.URL.Path, "/session/")
	sid := rest
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		sid = rest[:i]
	}
	rt.sessMu.Lock()
	id, ok := rt.sessRoute[sid]
	rt.sessMu.Unlock()
	if !ok {
		rt.met.badRequests.Add(1)
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such session %q (not created through this router)", sid))
		return
	}
	b := rt.backends[id]
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.opts.MaxBodyBytes+1))
	if err != nil || int64(len(body)) > rt.opts.MaxBodyBytes {
		rt.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, "bad request body")
		return
	}
	// A sticky request may not spill: the session lives on exactly one
	// node. It still respects the in-flight bound (blocking would invert
	// the bound's purpose; answer 429 instead).
	if !b.tryAcquire() {
		w.Header().Set("Retry-After", strconv.Itoa(1+mrand.Intn(3)))
		writeError(w, http.StatusTooManyRequests, fmt.Sprintf("backend %s at capacity", b.id))
		return
	}
	defer b.release()
	if done, _ := rt.forward(w, r, b, reqID, body); !done {
		rt.met.noBackend.Add(1)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("session backend %s unreachable", b.id))
		return
	}
	if r.Method == http.MethodDelete {
		rt.dropSessionRoute(sid)
	}
}

// tryCandidates walks the candidate order: unready nodes are skipped,
// full nodes spill to the next, connection failures retry on the next
// (bounded by MaxRetries). The first backend that answers — any HTTP
// status; backend rejections are data — is relayed.
func (rt *Router) tryCandidates(w http.ResponseWriter, r *http.Request, reqID string, body []byte, candidates []string, isSessionCreate bool) {
	retries := rt.opts.MaxRetries
	for i, id := range candidates {
		b, ok := rt.backends[id]
		if !ok || !b.ready.Load() {
			continue // membership race: probe removed it after Lookup
		}
		if !b.tryAcquire() {
			rt.met.spillovers.Add(1)
			continue
		}
		done, sessionID := rt.forward(w, r, b, reqID, body)
		b.release()
		if done {
			if isSessionCreate && sessionID != "" {
				rt.recordSessionRoute(sessionID, b.id)
			}
			return
		}
		// Connection failure: the backend never answered. Eject it from
		// the ring (the probe re-admits it when it recovers) and retry on
		// the next node.
		rt.setReady(b, false, "connection failure")
		if retries == 0 {
			rt.logf("req %s: retry budget exhausted after backend %s", reqID, id)
			break
		}
		if i < len(candidates)-1 {
			retries--
			rt.met.retries.Add(1)
		}
	}
	rt.met.noBackend.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(1+mrand.Intn(3)))
	writeError(w, http.StatusServiceUnavailable, "no ready backend available; retry later")
}

// hop-by-hop headers are stripped in both directions (RFC 9110 §7.6.1).
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// forward sends one attempt to b and, if the backend answers, relays the
// response. done=false means the backend never produced a response
// (dial failure, connection reset before or during the reply of a
// buffered exchange) and nothing was written to the client — the caller
// may retry elsewhere. For buffered exchanges the reply is read fully
// before the first client byte, so a backend SIGKILLed mid-reply still
// leaves the client retryable; SSE streams relay live and cannot be
// retried once the stream starts.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, b *backend, reqID string, body []byte) (done bool, sessionID string) {
	u := *b.base
	u.Path = strings.TrimSuffix(u.Path, "/") + r.URL.Path
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), bytes.NewReader(body))
	if err != nil {
		return false, ""
	}
	for k, vs := range r.Header {
		if isHopHeader(k) {
			continue
		}
		req.Header[k] = vs
	}
	req.Header.Set("X-Request-ID", reqID)
	if len(body) > 0 && req.Header.Get("Content-Type") == "" {
		req.Header.Set("Content-Type", "application/json")
	}

	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away, not the backend: answer nothing and
			// do not punish the backend for it.
			return true, ""
		}
		rt.met.backend(b.id).errors.Add(1)
		rt.logf("req %s: backend %s: %v", reqID, b.id, err)
		return false, ""
	}
	defer resp.Body.Close()

	streaming := strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")
	var reply []byte
	if !streaming {
		reply, err = io.ReadAll(io.LimitReader(resp.Body, rt.opts.MaxReplyBytes))
		if err != nil {
			if r.Context().Err() != nil {
				return true, ""
			}
			rt.met.backend(b.id).errors.Add(1)
			rt.logf("req %s: backend %s reply truncated: %v", reqID, b.id, err)
			return false, ""
		}
	}
	rt.met.proxied.Add(1)
	rt.met.observe(b.id, time.Since(start))

	h := w.Header()
	for k, vs := range resp.Header {
		if isHopHeader(k) || k == "X-Request-Id" {
			continue // the router's edge-assigned ID is already set
		}
		h[k] = vs
	}
	h.Set("X-Tetra-Backend", b.id)
	w.WriteHeader(resp.StatusCode)

	if streaming {
		copyFlush(w, resp.Body)
		return true, ""
	}
	w.Write(reply)
	if resp.StatusCode == http.StatusOK {
		var sr struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(reply, &sr) == nil {
			sessionID = sr.ID
		}
	}
	return true, sessionID
}

func isHopHeader(k string) bool {
	for _, h := range hopHeaders {
		if strings.EqualFold(k, h) {
			return true
		}
	}
	return false
}

// copyFlush relays a live stream, flushing every chunk so SSE frames
// reach the client as the backend emits them.
func copyFlush(w http.ResponseWriter, r io.Reader) {
	f, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// randomOrder returns the ready backends in a fresh uniform order.
func (rt *Router) randomOrder() []string {
	ready := make([]string, 0, len(rt.order))
	for _, id := range rt.order {
		if rt.backends[id].ready.Load() {
			ready = append(ready, id)
		}
	}
	rt.rngMu.Lock()
	rt.rng.Shuffle(len(ready), func(i, j int) { ready[i], ready[j] = ready[j], ready[i] })
	rt.rngMu.Unlock()
	return ready
}

func (rt *Router) recordSessionRoute(sid, backendID string) {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	if _, exists := rt.sessRoute[sid]; !exists {
		rt.sessFIFO = append(rt.sessFIFO, sid)
		for len(rt.sessFIFO) > rt.opts.MaxSessionRoutes {
			old := rt.sessFIFO[0]
			rt.sessFIFO = rt.sessFIFO[1:]
			delete(rt.sessRoute, old)
		}
	}
	rt.sessRoute[sid] = backendID
}

func (rt *Router) dropSessionRoute(sid string) {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	delete(rt.sessRoute, sid)
	// The FIFO entry stays; it is a tombstone that falls off naturally.
}

// Metrics returns a point-in-time snapshot of the router's counters.
func (rt *Router) Metrics() MetricsSnapshot {
	rt.sessMu.Lock()
	routes := len(rt.sessRoute)
	rt.sessMu.Unlock()
	snap := MetricsSnapshot{
		Draining:      rt.draining.Load(),
		Ready:         !rt.draining.Load() && rt.ring.Len() > 0,
		Policy:        rt.opts.Policy,
		RingMembers:   rt.ring.Len(),
		Requests:      rt.met.requests.Load(),
		Proxied:       rt.met.proxied.Load(),
		Retries:       rt.met.retries.Load(),
		Spillovers:    rt.met.spillovers.Load(),
		NoBackend:     rt.met.noBackend.Load(),
		Rejected503:   rt.met.rejected503.Load(),
		BadRequests:   rt.met.badRequests.Load(),
		Membership:    rt.met.membership.Load(),
		SessionRoutes: routes,
		Backends:      make(map[string]BackendMetrics),
	}
	rt.met.mu.Lock()
	ids := make([]string, 0, len(rt.met.backends))
	for id := range rt.met.backends {
		ids = append(ids, id)
	}
	rt.met.mu.Unlock()
	for _, id := range ids {
		bm := rt.met.backend(id)
		out := BackendMetrics{
			Requests: bm.requests.Load(),
			Errors:   bm.errors.Load(),
			Latency:  bm.lat.Snapshot(),
		}
		// Live state only for currently-configured backends; metrics for
		// departed ones survive with Ready=false.
		if b, ok := rt.backends[id]; ok {
			out.Ready = b.ready.Load()
			out.Weight = b.weight
			out.InFlight = int64(len(b.sem))
		}
		snap.Backends[id] = out
	}
	return snap
}

// Drain gracefully shuts the router down: readiness flips to 503, new
// proxy requests are rejected, the probers stop, and in-flight proxies
// get DrainGrace to finish (stop closing or firing aborts the wait).
// Idempotent; returns an error if proxies were abandoned.
func (rt *Router) Drain(stop <-chan struct{}) error {
	rt.drainOnce.Do(func() {
		rt.draining.Store(true)
		close(rt.stopCh)
	})
	rt.probeWG.Wait()
	grace := time.NewTimer(rt.opts.DrainGrace)
	defer grace.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for rt.inFlight.Load() > 0 {
		select {
		case <-tick.C:
		case <-grace.C:
			rt.closeIdle()
			return fmt.Errorf("router drain abandoned %d proxied request(s)", rt.inFlight.Load())
		case <-stop:
			rt.closeIdle()
			return fmt.Errorf("router drain stopped with %d proxied request(s) in flight", rt.inFlight.Load())
		}
	}
	rt.closeIdle()
	return nil
}

func (rt *Router) closeIdle() {
	rt.client.CloseIdleConnections()
	rt.probeC.CloseIdleConnections()
}

// Close is Drain with no external stop: the graceful shutdown path for
// defer.
func (rt *Router) Close() error { return rt.Drain(nil) }

func (rt *Router) logf(format string, args ...any) {
	if rt.opts.Logf != nil {
		rt.opts.Logf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, server.ErrorResponse{Error: msg, Code: status})
}
