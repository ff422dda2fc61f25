package server

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/worker"
)

// breakerKey is one executable path of a program: its identity, the
// engine that runs it (BackendInterp, BackendVM or TierNative) and the
// optimization level (0 for native). Keying by engine keeps a VM-only
// killer from quarantining the interpreter or native path, and lets a
// fresh native artifact acquit only the native key.
type breakerKey struct {
	id     core.ProgramID
	engine string
	opt    int
}

// maxBreakerEntries caps the breaker table; beyond it (after pruning) a
// new crashing key goes untracked, so a stream of distinct
// worker-killing submissions degrades the breaker, never memory.
const maxBreakerEntries = 4096

type quarEntry struct {
	crashes []time.Time // within the window, oldest first
	until   time.Time   // nonzero while quarantined
}

// quarantine is the server's one circuit breaker for programs that
// repeatedly crash their execution processes, fed by the pool's and the
// native runner's crash reports. Safe for concurrent use.
type quarantine struct {
	mu      sync.Mutex
	policy  worker.QuarantinePolicy
	entries map[breakerKey]*quarEntry
	now     func() time.Time // injectable clock for tests
}

func newQuarantine(p worker.QuarantinePolicy) *quarantine {
	if p.Threshold == 0 {
		p.Threshold = 3
	}
	if p.Window <= 0 {
		p.Window = time.Minute
	}
	if p.TTL <= 0 {
		p.TTL = 5 * time.Minute
	}
	return &quarantine{policy: p, entries: make(map[breakerKey]*quarEntry), now: time.Now}
}

// Record attributes one crash to k and reports whether k is now
// quarantined, and for how much longer.
func (q *quarantine) Record(k breakerKey) (time.Duration, bool) {
	if q.policy.Threshold < 0 {
		return 0, false
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[k]
	if e == nil {
		if len(q.entries) >= maxBreakerEntries {
			q.pruneLocked(now)
			if len(q.entries) >= maxBreakerEntries {
				return 0, false
			}
		}
		e = &quarEntry{}
		q.entries[k] = e
	}
	if now.Before(e.until) {
		return e.until.Sub(now), true // already quarantined; nothing more to count
	}
	e.until = time.Time{}
	e.crashes = append(e.inWindow(now, q.policy.Window), now)
	if len(e.crashes) >= q.policy.Threshold {
		e.until = now.Add(q.policy.TTL)
		e.crashes = nil
		return q.policy.TTL, true
	}
	return 0, false
}

// inWindow drops the crashes that fell out of the counting window.
func (e *quarEntry) inWindow(now time.Time, window time.Duration) []time.Time {
	cutoff := now.Add(-window)
	kept := e.crashes[:0]
	for _, t := range e.crashes {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	return kept
}

// pruneLocked forgets entries with no crash inside the window and no
// active quarantine: they can no longer trip or reject anything.
func (q *quarantine) pruneLocked(now time.Time) {
	for k, e := range q.entries {
		if e.crashes = e.inWindow(now, q.policy.Window); len(e.crashes) == 0 && !now.Before(e.until) {
			delete(q.entries, k)
		}
	}
}

// Acquit drops k's crash history and any active quarantine. It exists
// for the moment the facts change underneath the breaker: when a new
// native artifact is built for a program, the crashes recorded against
// the old artifact are evidence about a binary that no longer serves.
func (q *quarantine) Acquit(k breakerKey) {
	q.mu.Lock()
	delete(q.entries, k)
	q.mu.Unlock()
}

// Quarantined reports whether k is currently quarantined, and if so for
// how much longer.
func (q *quarantine) Quarantined(k breakerKey) (time.Duration, bool) {
	if q.policy.Threshold < 0 {
		return 0, false
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[k]
	if e == nil || e.until.IsZero() {
		return 0, false
	}
	if now.Before(e.until) {
		return e.until.Sub(now), true
	}
	// TTL elapsed: the breaker resets and the entry is forgotten.
	delete(q.entries, k)
	return 0, false
}

// Counts returns how many keys are quarantined on the pool's engines
// (interp and vm) and on the native tier.
func (q *quarantine) Counts() (pool, native int) {
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	for k, e := range q.entries {
		switch {
		case !now.Before(e.until):
		case k.engine == TierNative:
			native++
		default:
			pool++
		}
	}
	return pool, native
}
