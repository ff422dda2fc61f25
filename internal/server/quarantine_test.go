package server

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/worker"
)

// TestBreakerKeyIsolatesEnginesAndPrograms: the breaker key separates
// every executable path of a program and every program. Tripping the VM
// at -O2 leaves the interpreter, the VM at -O0 and the native tier
// serving; acquitting the native key (a fresh artifact) clears only it;
// file name and source each make a different program.
func TestBreakerKeyIsolatesEnginesAndPrograms(t *testing.T) {
	q := newQuarantine(worker.QuarantinePolicy{Threshold: 1, Window: time.Minute, TTL: time.Minute})
	src := "def main():\n    print(1)\n"
	id := core.NewProgramID("a.ttr", src)
	native := breakerKey{id: id, engine: TierNative}
	q.Record(breakerKey{id: id, engine: BackendVM, opt: 2})
	q.Record(native)

	for _, tc := range []struct {
		key  breakerKey
		want bool
	}{
		{breakerKey{id: id, engine: BackendVM, opt: 2}, true},
		{native, true},
		{breakerKey{id: id, engine: BackendInterp}, false},
		{breakerKey{id: id, engine: BackendVM}, false},
		{breakerKey{id: core.NewProgramID("b.ttr", src), engine: BackendVM, opt: 2}, false},
		{breakerKey{id: core.NewProgramID("a.ttr", src+"\n"), engine: BackendVM, opt: 2}, false},
	} {
		if _, got := q.Quarantined(tc.key); got != tc.want {
			t.Errorf("Quarantined(%s, %s, -O%d) = %v, want %v", tc.key.id, tc.key.engine, tc.key.opt, got, tc.want)
		}
	}
	if pool, nat := q.Counts(); pool != 1 || nat != 1 {
		t.Errorf("Counts() = %d, %d; want 1, 1", pool, nat)
	}

	q.Acquit(native)
	if _, ok := q.Quarantined(native); ok {
		t.Error("Acquit left the native key quarantined")
	}
	if _, ok := q.Quarantined(breakerKey{id: id, engine: BackendVM, opt: 2}); !ok {
		t.Error("acquitting the native key lifted the VM quarantine")
	}
	q.Acquit(breakerKey{id: core.NewProgramID("x.ttr", src), engine: TierNative}) // unknown: a no-op
}

// TestBreakerTableIsBounded: crashes of distinct programs that never
// reach the threshold must not grow the table without bound. Entries
// whose crashes left the window are pruned; live ones are capped.
func TestBreakerTableIsBounded(t *testing.T) {
	clock := time.Unix(1_000_000, 0)
	q := newQuarantine(worker.QuarantinePolicy{Threshold: 2, Window: time.Minute, TTL: time.Hour})
	q.now = func() time.Time { return clock }
	key := func(i int) breakerKey {
		return breakerKey{id: core.NewProgramID("k.ttr", fmt.Sprint(i)), engine: BackendVM, opt: 2}
	}
	poison := key(-1)
	q.Record(poison)
	if _, ok := q.Record(poison); !ok {
		t.Fatal("two crashes did not trip the breaker")
	}

	for i := 0; i < maxBreakerEntries+100; i++ {
		q.Record(key(i))
	}
	if n := len(q.entries); n > maxBreakerEntries {
		t.Fatalf("table grew to %d entries, cap %d", n, maxBreakerEntries)
	}

	// Past the window every below-threshold entry is stale: the next new
	// key prunes them, but the active quarantine survives.
	clock = clock.Add(2 * time.Minute)
	q.Record(key(-2))
	if n := len(q.entries); n != 2 {
		t.Errorf("after pruning: %d entries, want 2 (the quarantine and the new key)", n)
	}
	if _, ok := q.Quarantined(poison); !ok {
		t.Error("pruning dropped an active quarantine")
	}
}
