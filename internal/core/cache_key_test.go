package core

import (
	"testing"

	"repro/internal/bytecode"
)

// TestCacheKeyIdentity: the exported routing key must separate every axis
// the compile cache separates — file name, source text and optimization
// level — and nothing else: repeated derivation is stable.
func TestCacheKeyIdentity(t *testing.T) {
	base := CacheKey("a.ttr", "def main():\n    print(1)\n", 2)
	if base == "" {
		t.Fatal("empty key")
	}
	if again := CacheKey("a.ttr", "def main():\n    print(1)\n", 2); again != base {
		t.Errorf("key not stable: %q then %q", base, again)
	}
	for name, other := range map[string]string{
		"file":  CacheKey("b.ttr", "def main():\n    print(1)\n", 2),
		"src":   CacheKey("a.ttr", "def main():\n    print(2)\n", 2),
		"level": CacheKey("a.ttr", "def main():\n    print(1)\n", 0),
	} {
		if other == base {
			t.Errorf("key ignores the %s axis", name)
		}
	}
}

// TestCacheKeyCarriesIRVersion pins the derivation to the bytecode IR
// version: the key must be derived from the same triple the cache's
// bytecode table is keyed by, so an IR bump re-shards a router exactly
// like it invalidates cached bytecode. The golden below was computed
// under IRVersion 2; if the IR version changes, the key must change with
// it (update the golden alongside the version bump).
func TestCacheKeyCarriesIRVersion(t *testing.T) {
	if bytecode.IRVersion != 2 {
		t.Skipf("golden recorded under IRVersion 2, current %d — update it", bytecode.IRVersion)
	}
	got := CacheKey("p.ttr", "def main():\n    print(6 * 7)\n", 2)
	if got != cacheKeyGolden {
		t.Errorf("CacheKey golden drifted: got %s, want %s (did the key derivation or IRVersion change?)", got, cacheKeyGolden)
	}
}

// cacheKeyGolden is the recorded CacheKey("p.ttr", "def main():\n    print(6 * 7)\n", 2)
// under IRVersion 2.
const cacheKeyGolden = "888deb5767e50c21c12b54388724ec3b"

// TestLookupReportsHit: the lookup that serves a request reports whether
// its own table hit — a bytecode miss is a miss even when the AST it
// compiles from was cached — with no second probe.
func TestLookupReportsHit(t *testing.T) {
	c := NewCompileCache(8)
	src := "def main():\n    print(1)\n"
	id := NewProgramID("a.ttr", src)
	for i, want := range []bool{false, true} {
		if _, hit, err := c.Lookup(id, "a.ttr", src); err != nil || hit != want {
			t.Errorf("Lookup #%d: hit=%v err=%v, want hit=%v", i, hit, err, want)
		}
	}
	for i, want := range []bool{false, true} {
		if _, hit, err := c.LookupBytecode(id, "a.ttr", src, 2); err != nil || hit != want {
			t.Errorf("LookupBytecode #%d: hit=%v err=%v, want hit=%v", i, hit, err, want)
		}
	}
	if _, hit, _ := c.LookupBytecode(id, "a.ttr", src, 0); hit {
		t.Error("a bytecode lookup at another level hit")
	}
	// Each bytecode miss also probed the AST table, and hit it.
	if st := c.Stats(); st.Hits != 4 || st.Misses != 3 {
		t.Errorf("stats %+v, want 4 hits and 3 misses", st)
	}
}
