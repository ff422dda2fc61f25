package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// submission is one generated "student program" for serve-cold: a
// variant of a teaching-program template whose expected behaviour the
// generator computes in Go while it writes the source, so the check never
// consults the system under test.
type submission struct {
	Template string // group name: the feature list, for per-group medians
	File     string
	Source   string
	Stdin    string
	Stdout   string // expected stdout: all of it, or what precedes the error
	ErrStage string // "", "compile" or "runtime"
	ErrPos   string // "file:line:col" of the expected error
}

// Error cases are a fixed share of the submissions, by construction of
// the case draw in genSubmission (out of 100). These shares, like the
// 3-5 features drawn uniformly per submission, the one in five that
// reads stdin and the even interp/vm-O0/vm-O2 split, are the benchmark's
// assumptions, not rates measured on student traffic; every serve run
// prints the mix it actually sent.
const (
	shareRuntimeIndex = 5
	shareRuntimeDiv   = 4
	shareCompile      = 3
)

const submissionFile = "submission.ttr"

// progWriter builds a program line by line, tracking line numbers so
// that error positions are known exactly.
type progWriter struct {
	funcs []string // helper definitions, emitted before main
	main  []string // statements of main, already indented
	out   strings.Builder
	stdin string
}

func (w *progWriter) fn(lines ...string) { w.funcs = append(w.funcs, lines...) }
func (w *progWriter) stmt(lines ...string) {
	for _, l := range lines {
		w.main = append(w.main, "    "+l)
	}
}

// expect records output the program prints.
func (w *progWriter) expect(format string, args ...any) {
	fmt.Fprintf(&w.out, format, args...)
	w.out.WriteByte('\n')
}

// mainLine is the 1-based source line the next main statement lands on.
func (w *progWriter) mainLine(header int) int { return header + len(w.funcs) + 1 + len(w.main) + 1 }

func (w *progWriter) source(header []string) string {
	var b strings.Builder
	for _, l := range header {
		b.WriteString(l + "\n")
	}
	for _, l := range w.funcs {
		b.WriteString(l + "\n")
	}
	b.WriteString("def main():\n")
	for _, l := range w.main {
		b.WriteString(l + "\n")
	}
	return b.String()
}

// words mixes ASCII with multi-byte UTF-8, so rune-correct string
// handling is exercised on every backend.
var words = []string{"héllo", "wörld", "ñandú", "café", "naïve", "straße", "日本語", "ελληνικά", "привет", "smörgås", "tetra", "lock"}

type feature func(w *progWriter, r *rand.Rand, k int)

var features = []struct {
	name string
	f    feature
}{
	{"loop", featLoop},
	{"array", featArray},
	{"string", featString},
	{"pfor", featParallelFor},
	{"lock", featLock},
	{"recur", featRecursion},
}

// genSubmission draws submission idx of the stream seeded by seed. The
// same (seed, idx) always yields the same bytes; distinct idx never share
// a source, because the submission number is part of the program.
func genSubmission(seed int64, idx int) submission {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
	w := &progWriter{}
	header := []string{fmt.Sprintf("# submission %d", idx)}

	w.stmt(fmt.Sprintf("sid = %d", idx))
	w.stmt(`print("submission ", sid)`)
	w.expect("submission %d", idx)

	// Three to five features, in drawn order; k keeps every feature's
	// names distinct.
	order := r.Perm(len(features))
	n := 3 + r.Intn(3)
	var names []string
	for k, fi := range order[:n] {
		features[fi].f(w, r, k)
		names = append(names, features[fi].name)
	}
	if r.Intn(5) == 0 {
		a, b := r.Intn(200)-100, r.Intn(200)-100
		w.stmt("x = read_int()", "y = read_int()", `print("io ", x * y + x)`)
		w.expect("io %d", a*b+a)
		names = append(names, "io")
		w.stdin = fmt.Sprintf("%d\n%d\n", a, b)
	}
	sort.Strings(names)
	s := submission{Template: strings.Join(names, "+"), File: submissionFile}

	hdr := len(header)
	switch c := r.Intn(100); {
	case c < shareRuntimeIndex:
		n := 2 + r.Intn(4)
		i := n + r.Intn(5)
		w.stmt(fmt.Sprintf("bad = range(%d)", n), fmt.Sprintf("at = %d", i))
		line := "print(bad[at])"
		s.ErrPos = fmt.Sprintf("%s:%d:%d", s.File, w.mainLine(hdr), 4+strings.Index(line, "bad[")+1)
		w.stmt(line)
		s.ErrStage = "runtime"
		s.Template += "!index"
	case c < shareRuntimeIndex+shareRuntimeDiv:
		q := 1 + r.Intn(50)
		w.stmt(fmt.Sprintf("zero = %d - %d", q, q), fmt.Sprintf("num = %d", 100+r.Intn(100)))
		line := "print(num / zero)"
		s.ErrPos = fmt.Sprintf("%s:%d:%d", s.File, w.mainLine(hdr), 4+strings.Index(line, "/")+1)
		w.stmt(line)
		s.ErrStage = "runtime"
		s.Template += "!div"
	case c < shareRuntimeIndex+shareRuntimeDiv+shareCompile:
		var line string
		var col int
		if r.Intn(2) == 0 {
			line = fmt.Sprintf("print(undefined%d)", r.Intn(100))
			col = 4 + strings.Index(line, "undefined") + 1
		} else {
			w.stmt(fmt.Sprintf("count = %d", r.Intn(10)))
			line = `count = "many"`
			col = 4 + strings.Index(line, "=") + 1
		}
		s.ErrPos = fmt.Sprintf("%s:%d:%d", s.File, w.mainLine(hdr), col)
		w.stmt(line)
		s.ErrStage = "compile"
		s.Template += "!compile"
	}
	s.Source = w.source(header)
	s.Stdin = w.stdin
	switch s.ErrStage {
	case "compile":
		s.Stdout = ""
	default:
		s.Stdout = w.out.String()
	}
	return s
}

func featLoop(w *progWriter, r *rand.Rand, k int) {
	n, a, m := 50+r.Intn(350), 1+r.Intn(90), 7+r.Intn(90)
	w.fn(fmt.Sprintf("def poly%d(n int, a int, m int) int:", k),
		"    total = 0",
		"    i = 0",
		"    while i < n:",
		"        total += (i * a) % m",
		"        i += 1",
		"    return total",
		"")
	w.stmt(fmt.Sprintf(`print("poly ", poly%d(%d, %d, %d))`, k, n, a, m))
	total := 0
	for i := 0; i < n; i++ {
		total += (i * a) % m
	}
	w.expect("poly %d", total)
}

func featArray(w *progWriter, r *rand.Rand, k int) {
	n := 5 + r.Intn(8)
	vals := make([]int, n)
	lit := make([]string, n)
	for i := range vals {
		vals[i] = r.Intn(200) - 100
		lit[i] = fmt.Sprint(vals[i])
	}
	v := fmt.Sprintf("arr%d", k)
	w.stmt(fmt.Sprintf("%s = [%s]", v, strings.Join(lit, ", ")),
		fmt.Sprintf("sum%d = 0", k),
		fmt.Sprintf("top%d = %s[0]", k, v),
		fmt.Sprintf("for v%d in %s:", k, v),
		fmt.Sprintf("    sum%d += v%d", k, k),
		fmt.Sprintf("    if v%d > top%d:", k, k),
		fmt.Sprintf("        top%d = v%d", k, k),
		fmt.Sprintf("sorted%d = sort(%s)", k, v),
		fmt.Sprintf(`print("array ", sum%d, " ", top%d, " ", %s[-1], " ", sorted%d[0], " ", len(%s))`, k, k, v, k, v))
	sum, top := 0, vals[0]
	for _, x := range vals {
		sum += x
		if x > top {
			top = x
		}
	}
	sorted := append([]int(nil), vals...)
	sort.Ints(sorted)
	w.expect("array %d %d %d %d %d", sum, top, vals[n-1], sorted[0], n)
}

func featString(w *progWriter, r *rand.Rand, k int) {
	a, b := words[r.Intn(len(words))], words[r.Intn(len(words))]
	s := []rune(a + " " + b)
	j := r.Intn(2*len(s)) - len(s)
	target := string(s[r.Intn(len(s))])
	v := fmt.Sprintf("s%d", k)
	w.stmt(fmt.Sprintf(`%s = "%s" + " " + "%s"`, v, a, b),
		fmt.Sprintf("hits%d = 0", k),
		fmt.Sprintf("for ch%d in %s:", k, v),
		fmt.Sprintf(`    if ch%d == "%s":`, k, target),
		fmt.Sprintf("        hits%d += 1", k),
		fmt.Sprintf(`print("string ", len(%s), " ", %s[%d], " ", hits%d, " ", reverse(%s))`, v, v, j, k, v))
	hits := 0
	for _, c := range s {
		if string(c) == target {
			hits++
		}
	}
	idx := j
	if idx < 0 {
		idx += len(s)
	}
	rev := make([]rune, len(s))
	for i, c := range s {
		rev[len(s)-1-i] = c
	}
	w.expect("string %d %s %d %s", len(s), string(s[idx]), hits, string(rev))
}

func featParallelFor(w *progWriter, r *rand.Rand, k int) {
	n, a, b, m := 8+r.Intn(57), 1+r.Intn(20), r.Intn(50), 11+r.Intn(200)
	w.fn(fmt.Sprintf("def cell%d(x int) int:", k),
		fmt.Sprintf("    return (x * x * %d + %d) %% %d", a, b, m),
		"")
	v := fmt.Sprintf("cells%d", k)
	w.stmt(fmt.Sprintf("%s = range(%d)", v, n),
		fmt.Sprintf("parallel for i%d in range(%d):", k, n),
		fmt.Sprintf("    %s[i%d] = cell%d(i%d)", v, k, k, k),
		fmt.Sprintf("total%d = 0", k),
		fmt.Sprintf("for c%d in %s:", k, v),
		fmt.Sprintf("    total%d += c%d", k, k),
		fmt.Sprintf(`print("pfor ", total%d)`, k))
	total := 0
	for x := 0; x < n; x++ {
		total += (x*x*a + b) % m
	}
	w.expect("pfor %d", total)
}

func featLock(w *progWriter, r *rand.Rand, k int) {
	lo, n, c := r.Intn(20), 8+r.Intn(40), 1+r.Intn(9)
	w.stmt(fmt.Sprintf("acc%d = 0", k),
		fmt.Sprintf("parallel for v%d in range(%d, %d):", k, lo, lo+n),
		fmt.Sprintf("    lock tally%d:", k),
		fmt.Sprintf("        acc%d += v%d * %d", k, k, c),
		fmt.Sprintf(`print("lock ", acc%d)`, k))
	acc := 0
	for v := lo; v < lo+n; v++ {
		acc += v * c
	}
	w.expect("lock %d", acc)
}

func featRecursion(w *progWriter, r *rand.Rand, k int) {
	a, b := 1+r.Intn(5000), 1+r.Intn(5000)
	w.fn(fmt.Sprintf("def gcd%d(a int, b int) int:", k),
		"    if b == 0:",
		"        return a",
		fmt.Sprintf("    return gcd%d(b, a %% b)", k),
		"")
	n := 1 + r.Intn(60)
	w.fn(fmt.Sprintf("def steps%d(n int) int:", k),
		"    count = 0",
		"    while n != 1:",
		"        if n % 2 == 0:",
		"            n = n / 2",
		"        else:",
		"            n = 3 * n + 1",
		"        count += 1",
		"    return count",
		"")
	w.stmt(fmt.Sprintf(`print("recur ", gcd%d(%d, %d), " ", steps%d(%d))`, k, a, b, k, n))
	g, x, y := 0, a, b
	for y != 0 {
		x, y = y, x%y
	}
	g = x
	steps := 0
	for m := n; m != 1; steps++ {
		if m%2 == 0 {
			m /= 2
		} else {
			m = 3*m + 1
		}
	}
	w.expect("recur %d %d", g, steps)
}
