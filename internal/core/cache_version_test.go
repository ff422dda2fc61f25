package core

import (
	"testing"

	"repro/internal/bytecode"
)

// The bytecode table is keyed by IR version: an entry compiled under an
// older instruction encoding must never be replayed by a newer VM. These
// tests seed the table with old-version keys directly (the cache is
// in-process, so this models a long-running service surviving an IR bump,
// or an embedder seeding entries from elsewhere).

func TestBytecodeCacheMissesOnOldIRVersion(t *testing.T) {
	c := NewCompileCache(8)
	src := "def main():\n    print(42)\n"

	// A sentinel program stored under the previous IR version. If the
	// cache ever returns it, the lookup ignored the version field.
	stale := &bytecode.Program{MainIndex: -1}
	id := NewProgramID("a.ttr", src)
	oldKey := bcKey{id: id, level: bytecode.O2, ir: bytecode.IRVersion - 1}
	c.mu.Lock()
	c.bcs[oldKey] = stale
	c.mu.Unlock()

	bc, hit, err := c.LookupBytecode(id, "a.ttr", src, bytecode.O2)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("lookup claims a hit for an entry stored under the old IR version")
	}
	if bc == stale || bc.MainIndex < 0 {
		t.Fatal("cache served bytecode compiled under the old IR version")
	}

	// The recompile stored a fresh entry under the current version; the
	// stale one is still keyed separately and still never served.
	bc2, hit, err := c.LookupBytecode(id, "a.ttr", src, bytecode.O2)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || bc2 != bc {
		t.Error("warm lookup under the current IR version missed")
	}
}

func TestBytecodeCacheKeyCarriesCurrentIRVersion(t *testing.T) {
	c := NewCompileCache(8)
	if _, err := c.CompileBytecode("a.ttr", "def main():\n    pass\n", bytecode.O0); err != nil {
		t.Fatal(err)
	}
	for key := range c.bcs {
		if key.ir != bytecode.IRVersion {
			t.Errorf("key.ir = %d, want current IRVersion %d", key.ir, bytecode.IRVersion)
		}
	}
}
