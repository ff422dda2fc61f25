package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/bytecode"
)

// CompileCache memoizes the front half of the pipeline so repeated runs of
// the same source — a student re-running a benchmark, a grader executing
// the same submission on several inputs, an embedder calling the same
// program in a loop — skip parse, check and bytecode compilation entirely.
//
// Entries are keyed by ProgramID, a content hash of the file name and
// source text together. Bytecode entries are additionally keyed by
// optimization level, because the optimizer rewrites a Program in place —
// a -O0 and a -O2 caller must never share one.
//
// Checked ASTs and compiled bytecode are immutable during execution, so a
// cached program may be run many times and from multiple goroutines; the
// cache itself is safe for concurrent use.
type CompileCache struct {
	mu     sync.Mutex
	max    int
	asts   map[ProgramID]*ast.Program
	bcs    map[bcKey]*bytecode.Program
	hits   uint64
	misses uint64
}

// ProgramID is the one identity of a Tetra program: the SHA-256 of its
// file name and source text with a NUL between them. Positions (and so
// error messages) embed the file name, so the same text under two names
// is two programs. Every per-program table — compile cache, quarantine
// breaker, native promoter, router ring — keys by it, and each process a
// request crosses computes it once.
type ProgramID [sha256.Size]byte

// NewProgramID derives the identity of (file, src).
func NewProgramID(file, src string) ProgramID {
	h := sha256.New()
	h.Write([]byte(file))
	h.Write([]byte{0}) // unambiguous boundary between name and text
	h.Write([]byte(src))
	var id ProgramID
	h.Sum(id[:0])
	return id
}

// String is a short hex prefix of the identity, for logs and forensics.
func (id ProgramID) String() string { return hex.EncodeToString(id[:12]) }

// bcKey keys the bytecode table. Alongside the program identity and
// optimization level it carries the bytecode IR version: a long-running
// process that persists across an IR change (or an embedder that seeds the
// cache from elsewhere) must never replay bytecode compiled under an older
// instruction encoding on a newer VM. An entry written under a different
// IRVersion simply misses and the source is recompiled.
type bcKey struct {
	id    ProgramID
	level int
	ir    int
}

// CacheKey returns the stable hex key for (file, src) at one optimization
// level — the triple the bytecode table keys entries by (ProgramID,
// level, IRVersion), rendered as a string for use outside this package.
// A front router that consistent-hashes this key across replicas sends
// every request for one program to the replica whose compile cache is
// already warm on it, and an IR bump re-shards exactly like it re-keys
// the cache.
func CacheKey(file, src string, level int) string {
	id := NewProgramID(file, src)
	h := sha256.New()
	h.Write(id[:])
	fmt.Fprintf(h, ":%d:%d", level, bytecode.IRVersion)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// DefaultCacheEntries bounds a cache built with NewCompileCache(0).
const DefaultCacheEntries = 128

// NewCompileCache returns an empty cache holding at most maxEntries
// programs per table (checked ASTs and compiled bytecode count
// separately); maxEntries <= 0 selects DefaultCacheEntries. When full, an
// arbitrary entry is evicted — the cache is a memo table, not an LRU.
func NewCompileCache(maxEntries int) *CompileCache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &CompileCache{
		max:  maxEntries,
		asts: make(map[ProgramID]*ast.Program),
		bcs:  make(map[bcKey]*bytecode.Program),
	}
}

// CacheStats reports cache effectiveness. A lookup that misses the
// bytecode table but hits the AST table counts one hit and one miss.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Stats returns the hit/miss counters accumulated so far.
func (c *CompileCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses}
}

// Compile is core.Compile through the cache: parse+check run only on the
// first sight of a (file, src) pair. Compile errors are not cached.
func (c *CompileCache) Compile(file, src string) (*ast.Program, error) {
	p, _, err := c.Lookup(NewProgramID(file, src), file, src)
	return p, err
}

// CompileBytecode compiles (file, src) to bytecode at the given
// optimization level through the cache, memoizing both the checked AST and
// the optimized bytecode.
func (c *CompileCache) CompileBytecode(file, src string, level int) (*bytecode.Program, error) {
	bc, _, err := c.LookupBytecode(NewProgramID(file, src), file, src, level)
	return bc, err
}

// Lookup is Compile for a caller that already holds the program's
// identity (id must be NewProgramID(file, src)); hit reports whether the
// checked AST came from the cache.
func (c *CompileCache) Lookup(id ProgramID, file, src string) (p *ast.Program, hit bool, err error) {
	c.mu.Lock()
	if p, ok := c.asts[id]; ok {
		c.hits++
		c.mu.Unlock()
		return p, true, nil
	}
	c.misses++
	c.mu.Unlock()

	p, err = Compile(file, src)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	c.evictASTLocked()
	c.asts[id] = p
	c.mu.Unlock()
	return p, false, nil
}

// LookupBytecode is CompileBytecode for a caller that already holds the
// program's identity; hit reports whether the bytecode came from the
// cache.
func (c *CompileCache) LookupBytecode(id ProgramID, file, src string, level int) (bc *bytecode.Program, hit bool, err error) {
	key := bcKey{id: id, level: level, ir: bytecode.IRVersion}
	c.mu.Lock()
	if bc, ok := c.bcs[key]; ok {
		c.hits++
		c.mu.Unlock()
		return bc, true, nil
	}
	c.misses++
	c.mu.Unlock()

	p, _, err := c.Lookup(id, file, src)
	if err != nil {
		return nil, false, err
	}
	bc, err = CompileBytecodeOpt(p, level)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	c.evictBCLocked()
	c.bcs[key] = bc
	c.mu.Unlock()
	return bc, false, nil
}

func (c *CompileCache) evictASTLocked() {
	for len(c.asts) >= c.max {
		for k := range c.asts {
			delete(c.asts, k)
			break
		}
	}
}

func (c *CompileCache) evictBCLocked() {
	for len(c.bcs) >= c.max {
		for k := range c.bcs {
			delete(c.bcs, k)
			break
		}
	}
}
