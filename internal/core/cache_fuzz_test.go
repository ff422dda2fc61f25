package core

import (
	"fmt"
	"sync"
	"testing"
)

// FuzzCompileCacheConcurrent drives a deliberately tiny cache from many
// goroutines with a mix of valid and invalid sources derived from the fuzz
// input, forcing constant eviction races between Compile, CompileBytecode
// and the identity-keyed lookups. Invariants: no panic or deadlock, compile results
// are deterministic per source (an entry served from cache and a fresh
// compile must agree on success/failure), and the hit/miss counters stay
// coherent.
func FuzzCompileCacheConcurrent(f *testing.F) {
	f.Add("x = 1", uint8(3))
	f.Add("print(\"hi\")", uint8(7))
	f.Add("this is not tetra", uint8(2))
	f.Add("", uint8(1))
	f.Fuzz(func(t *testing.T, stmt string, n uint8) {
		// A few program variants: some valid, some not, all sharing the
		// cache. Capacity 2 forces eviction as soon as 3 distinct sources
		// are in play.
		variants := []string{
			"def main():\n    " + stmt + "\n",
			"def main():\n    pass\n",
			fmt.Sprintf("def main():\n    print(%d)\n", n),
			stmt, // usually a parse error at top level
		}
		// Establish ground truth without the cache.
		wantErr := make([]bool, len(variants))
		for i, src := range variants {
			_, err := Compile("f.ttr", src)
			wantErr[i] = err != nil
		}

		c := NewCompileCache(2)
		var wg sync.WaitGroup
		workers := 4 + int(n%4)
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					src := variants[(w+i)%len(variants)]
					gotErr := wantErr[(w+i)%len(variants)]
					switch (w + i) % 3 {
					case 0:
						p, err := c.Compile("f.ttr", src)
						if (err != nil) != gotErr {
							t.Errorf("cache Compile disagreed with direct compile for %q: %v", src, err)
						}
						if err == nil && p == nil {
							t.Error("nil program without error")
						}
					case 1:
						level := int(n) % 3
						bc, err := c.CompileBytecode("f.ttr", src, level)
						if (err != nil) != gotErr {
							t.Errorf("cache CompileBytecode disagreed for %q: %v", src, err)
						}
						if err == nil && bc == nil {
							t.Error("nil bytecode without error")
						}
					default:
						id := NewProgramID("f.ttr", src)
						if _, _, err := c.Lookup(id, "f.ttr", src); (err != nil) != gotErr {
							t.Errorf("cache Lookup disagreed for %q: %v", src, err)
						}
						if _, _, err := c.LookupBytecode(id, "f.ttr", src, int(n)%3); (err != nil) != gotErr {
							t.Errorf("cache LookupBytecode disagreed for %q: %v", src, err)
						}
					}
				}
			}()
		}
		wg.Wait()

		st := c.Stats()
		if st.Hits+st.Misses == 0 {
			t.Error("no cache traffic recorded")
		}
	})
}
