package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The parallel-compute programs: the paper's §IV pair (primes and TSP)
// plus one per-element `parallel for` (mandelbrot). Each has a Tetra
// source and a native-Go twin running the same algorithm with the same
// decomposition; the twin is both the output oracle and the host's
// parallel ceiling. Inputs are fixed, not drawn from the seed: branch and
// bound work varies by orders of magnitude between TSP instances, so a
// seeded instance would make the run time measure the seed.

const (
	primesLimit  = 30000
	primesChunks = 64
	tspCities    = 9
	mandelW      = 64
	mandelH      = 48
	mandelCap    = 100
)

type kernel struct {
	name   string
	source string
	native func(workers int) string // the program's expected stdout
}

func kernels() []kernel {
	return []kernel{
		{"primes", primesSource(primesLimit, primesChunks), func(w int) string {
			return fmt.Sprintf("%d\n", primesNative(primesLimit, primesChunks, w))
		}},
		{"tsp", tspSource(tspCities), func(w int) string {
			return fmt.Sprintf("%d\n", tspNative(tspCities, w))
		}},
		{"mandelbrot", mandelSource(mandelW, mandelH, mandelCap), func(w int) string {
			return fmt.Sprintf("%d\n", mandelNative(mandelW, mandelH, mandelCap, w))
		}},
	}
}

func primesSource(limit, chunks int) string {
	return fmt.Sprintf(`# count primes below a limit by trial division, one parallel iteration per chunk
def is_prime(n int) bool:
    if n < 2:
        return false
    if n %% 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n %% i == 0:
            return false
        i += 2
    return true

def count_range(lo int, hi int) int:
    count = 0
    n = lo
    while n < hi:
        if is_prime(n):
            count += 1
        n += 1
    return count

def main():
    limit = %d
    chunks = %d
    size = limit / chunks + 1
    counts = range(chunks)
    parallel for c in range(chunks):
        counts[c] = count_range(c * size, min(limit, (c + 1) * size))
    total = 0
    for v in counts:
        total += v
    print(total)
`, limit, chunks)
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for i := 3; i*i <= n; i += 2 {
		if n%i == 0 {
			return false
		}
	}
	return true
}

// parallelChunks runs body(i) for i in [0, n) on workers goroutines
// claiming contiguous chunks from a shared cursor, with the chunk size
// Tetra's scheduler defaults to: max(1, n/(workers*8)).
func parallelChunks(n, workers int, body func(i int)) {
	grain := max(1, n/(workers*8))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+grain, n); i++ {
					body(i)
				}
			}
		}()
	}
	wg.Wait()
}

func primesNative(limit, chunks, workers int) int {
	size := limit/chunks + 1
	counts := make([]int, chunks)
	parallelChunks(chunks, workers, func(c int) {
		hi := min((c+1)*size, limit)
		n := 0
		for x := c * size; x < hi; x++ {
			if isPrime(x) {
				n++
			}
		}
		counts[c] = n
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// tspCoords is a fixed instance on a 100×100 plane from a small LCG.
func tspCoords(n int) (xs, ys []float64) {
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64((state>>33)%10000) / 100
	}
	for i := 0; i < n; i++ {
		xs = append(xs, next())
		ys = append(ys, next())
	}
	return xs, ys
}

func tspSource(n int) string {
	xs, ys := tspCoords(n)
	list := func(vs []float64) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = fmt.Sprintf("%.2f", v)
		}
		return strings.Join(parts, ", ")
	}
	return fmt.Sprintf(`# exact TSP by branch and bound, one parallel iteration per first hop,
# sharing the best bound under a lock (seeded by the nearest-neighbour tour)
def dist(xs [real], ys [real], i int, j int) real:
    dx = xs[i] - xs[j]
    dy = ys[i] - ys[j]
    return sqrt(dx * dx + dy * dy)

def search(xs [real], ys [real], visited [int], bound [real], current int, count int, cost real):
    if cost >= bound[0]:
        return
    n = len(xs)
    if count == n:
        total = cost + dist(xs, ys, current, 0)
        if total < bound[0]:
            lock best:
                if total < bound[0]:
                    bound[0] = total
        return
    i = 1
    while i < n:
        if visited[i] == 0:
            visited[i] = 1
            search(xs, ys, visited, bound, i, count + 1, cost + dist(xs, ys, current, i))
            visited[i] = 0
        i += 1

def branch(xs [real], ys [real], bound [real], first int):
    n = len(xs)
    visited = range(n)
    i = 0
    while i < n:
        visited[i] = 0
        i += 1
    visited[0] = 1
    visited[first] = 1
    search(xs, ys, visited, bound, first, 2, dist(xs, ys, 0, first))

def greedy(xs [real], ys [real]) real:
    n = len(xs)
    used = range(n)
    i = 0
    while i < n:
        used[i] = 0
        i += 1
    used[0] = 1
    cur = 0
    total = 0.0
    step = 1
    while step < n:
        pick = -1
        pickd = 0.0
        j = 1
        while j < n:
            if used[j] == 0:
                d = dist(xs, ys, cur, j)
                if pick < 0 or d < pickd:
                    pick = j
                    pickd = d
            j += 1
        used[pick] = 1
        total += pickd
        cur = pick
        step += 1
    return total + dist(xs, ys, cur, 0)

def main():
    xs = [%s]
    ys = [%s]
    bound = [greedy(xs, ys)]
    parallel for first in range(1, len(xs)):
        branch(xs, ys, bound, first)
    print(floor(bound[0] * 100.0 + 0.5))
`, list(xs), list(ys))
}

// tspNative mirrors tspSource operation for operation, so the float sums
// (and therefore the optimum found) are bit-identical. Coordinates go
// through the same two-decimal text form the Tetra source carries.
func tspNative(n, workers int) int {
	xs, ys := tspCoords(n)
	for i := range xs {
		xs[i], _ = strconv.ParseFloat(fmt.Sprintf("%.2f", xs[i]), 64)
		ys[i], _ = strconv.ParseFloat(fmt.Sprintf("%.2f", ys[i]), 64)
	}
	dist := func(i, j int) float64 {
		dx := xs[i] - xs[j]
		dy := ys[i] - ys[j]
		return math.Sqrt(float64(dx*dx) + float64(dy*dy))
	}
	used := make([]bool, n)
	used[0] = true
	cur, total := 0, 0.0
	for step := 1; step < n; step++ {
		pick, pickd := -1, 0.0
		for j := 1; j < n; j++ {
			if !used[j] {
				if d := dist(cur, j); pick < 0 || d < pickd {
					pick, pickd = j, d
				}
			}
		}
		used[pick] = true
		total += pickd
		cur = pick
	}
	var mu sync.Mutex
	var bound atomic.Uint64
	bound.Store(math.Float64bits(total + dist(cur, 0)))
	load := func() float64 { return math.Float64frombits(bound.Load()) }
	var search func(visited []bool, current, count int, cost float64)
	search = func(visited []bool, current, count int, cost float64) {
		if cost >= load() {
			return
		}
		if count == n {
			t := cost + dist(current, 0)
			if t < load() {
				mu.Lock()
				if t < load() {
					bound.Store(math.Float64bits(t))
				}
				mu.Unlock()
			}
			return
		}
		for i := 1; i < n; i++ {
			if !visited[i] {
				visited[i] = true
				search(visited, i, count+1, cost+dist(current, i))
				visited[i] = false
			}
		}
	}
	parallelChunks(n-1, workers, func(i int) {
		first := i + 1
		visited := make([]bool, n)
		visited[0], visited[first] = true, true
		search(visited, first, 2, dist(0, first))
	})
	return int(math.Floor(float64(load()*100) + 0.5))
}

func mandelSource(w, h, limit int) string {
	return fmt.Sprintf(`# escape-time fractal, one parallel iteration per pixel
def escape(px int, py int, w int, h int, cap int) int:
    cr = (to_real(px) / to_real(w)) * 3.0 - 2.0
    ci = (to_real(py) / to_real(h)) * 2.0 - 1.0
    zr = 0.0
    zi = 0.0
    n = 0
    while n < cap:
        t = zr * zr - zi * zi + cr
        zi = 2.0 * zr * zi + ci
        zr = t
        if zr * zr + zi * zi > 4.0:
            return n
        n += 1
    return cap

def main():
    w = %d
    h = %d
    cap = %d
    out = range(w * h)
    parallel for p in range(w * h):
        out[p] = escape(p %% w, p / w, w, h, cap)
    sum = 0
    for v in out:
        sum += v
    print(sum)
`, w, h, limit)
}

// mandelNative rounds every product explicitly (float64 conversions), so
// no fused multiply-add can make it disagree with the Tetra backends.
func mandelNative(w, h, limit, workers int) int {
	out := make([]int, w*h)
	parallelChunks(w*h, workers, func(p int) {
		px, py := p%w, p/w
		cr := float64(float64(px)/float64(w))*3.0 - 2.0
		ci := float64(float64(py)/float64(h))*2.0 - 1.0
		zr, zi := 0.0, 0.0
		n := 0
		for ; n < limit; n++ {
			t := float64(float64(zr*zr)-float64(zi*zi)) + cr
			zi = float64(float64(2.0*zr)*zi) + ci
			zr = t
			if float64(zr*zr)+float64(zi*zi) > 4.0 {
				break
			}
		}
		out[p] = n
	})
	sum := 0
	for _, v := range out {
		sum += v
	}
	return sum
}
