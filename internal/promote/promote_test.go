package promote

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

const helloSrc = "def main():\n    print(1 + 2)\n"

// waitArtifact polls until the Manager publishes an artifact for
// (file, src) or the deadline passes.
func waitArtifact(t *testing.T, m *Manager, file, src string, wait time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		if bin, ok := m.Artifact(file, src); ok {
			return bin
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no artifact for %s within %s; stats %+v", file, wait, m.Stats())
	return ""
}

// waitState polls until the tracked program reaches the wanted state.
func waitState(t *testing.T, m *Manager, file, src string, want state, wait time.Duration) {
	t.Helper()
	id := core.NewProgramID(file, src)
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		p := m.byKey[id]
		st := stateCold
		if p != nil {
			st = p.state
		}
		m.mu.Unlock()
		if st == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("program never reached state %v; stats %+v", want, m.Stats())
}

func TestThresholdPromotesAndBuildsArtifact(t *testing.T) {
	var mu sync.Mutex
	var readyIDs []core.ProgramID
	m := New(Config{
		Threshold: 3,
		BuildDir:  t.TempDir(),
		OnReady: func(id core.ProgramID) {
			mu.Lock()
			readyIDs = append(readyIDs, id)
			mu.Unlock()
		},
		Logf: t.Logf,
	})
	if !m.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	defer m.Close()

	m.Observe("hot.ttr", helloSrc)
	m.Observe("hot.ttr", helloSrc)
	if _, ok := m.Artifact("hot.ttr", helloSrc); ok {
		t.Fatal("artifact published below the threshold")
	}
	m.Observe("hot.ttr", helloSrc) // crosses the threshold

	bin := waitArtifact(t, m, "hot.ttr", helloSrc, 2*time.Minute)
	fi, err := os.Stat(bin)
	if err != nil {
		t.Fatalf("artifact missing on disk: %v", err)
	}
	if fi.Mode()&0o111 == 0 {
		t.Fatalf("artifact %s is not executable (mode %v)", bin, fi.Mode())
	}
	want := core.NewProgramID("hot.ttr", helloSrc)
	mu.Lock()
	gotReady := len(readyIDs) == 1 && readyIDs[0] == want
	mu.Unlock()
	if !gotReady {
		t.Errorf("OnReady ids = %v, want exactly [%s]", readyIDs, want)
	}
	st := m.Stats()
	if st.Ready != 1 || st.Builds+st.ArtifactReuses != 1 {
		t.Errorf("stats after promote: %+v", st)
	}
}

func TestArtifactReusedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Config{Threshold: 1, BuildDir: dir, Logf: t.Logf})
	if !m1.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	m1.Observe("reuse.ttr", helloSrc)
	bin1 := waitArtifact(t, m1, "reuse.ttr", helloSrc, 2*time.Minute)
	m1.Close()

	// A fresh Manager (a restarted server) must find the same
	// content-addressed binary without invoking the toolchain.
	m2 := New(Config{Threshold: 1, BuildDir: dir, Logf: t.Logf})
	defer m2.Close()
	m2.Observe("reuse.ttr", helloSrc)
	bin2 := waitArtifact(t, m2, "reuse.ttr", helloSrc, time.Minute)
	if bin1 != bin2 {
		t.Errorf("artifact path changed across restart: %s vs %s", bin1, bin2)
	}
	st := m2.Stats()
	if st.Builds != 0 || st.ArtifactReuses != 1 {
		t.Errorf("restart should reuse, not rebuild: %+v", st)
	}
}

// TestSharedBuildDirConcurrentBuilds: two managers (two servers on one
// host) sharing a build dir build the same program at the same moment.
// Each build must stage its own temp file, so neither fails on the
// other's output. The stand-in toolchain writes its output and then
// lingers, so both builds have written before either renames — with a
// shared temp name, the second rename would find it gone.
func TestSharedBuildDirConcurrentBuilds(t *testing.T) {
	dir := t.TempDir()
	tool := filepath.Join(t.TempDir(), "go")
	script := "#!/bin/sh\n# build -o OUT PKG\nprintf '#!/bin/sh\\n' > \"$3\" && chmod +x \"$3\" && sleep 0.3\n"
	if err := os.WriteFile(tool, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	var ms [2]*Manager
	for i := range ms {
		ms[i] = New(Config{Threshold: 1, BuildDir: dir, GoTool: tool, Logf: t.Logf})
		if !ms[i].Enabled() {
			t.Skip("no Go toolchain/module; native tier disabled")
		}
		defer ms[i].Close()
	}
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func(m *Manager) {
			defer wg.Done()
			m.Observe("shared.ttr", helloSrc)
		}(m)
	}
	wg.Wait()
	for i, m := range ms {
		deadline := time.Now().Add(time.Minute)
		st := m.Stats()
		for st.Ready+int(st.BuildFailures) == 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			st = m.Stats()
		}
		if st.BuildFailures != 0 || st.Ready != 1 {
			t.Errorf("manager %d: %+v", i, st)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp build outputs left behind: %v", tmps)
	}
}

func TestBuildFailureCoolsThenRetriesAfterBackoff(t *testing.T) {
	clock := time.Now()
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	m := New(Config{
		Threshold:      1,
		BuildDir:       t.TempDir(),
		GoTool:         "/bin/false", // toolchain always fails
		RebuildBackoff: time.Hour,
		Logf:           t.Logf,
		now:            now,
	})
	if !m.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	defer m.Close()

	m.Observe("flaky.ttr", helloSrc)
	waitState(t, m, "flaky.ttr", helloSrc, stateCooling, time.Minute)
	if st := m.Stats(); st.BuildFailures != 1 || st.Ready != 0 {
		t.Fatalf("after failed build: %+v", st)
	}

	// Inside the cooldown, more heat must not re-enqueue.
	m.Observe("flaky.ttr", helloSrc)
	time.Sleep(50 * time.Millisecond)
	if st := m.Stats(); st.BuildFailures != 1 {
		t.Fatalf("re-enqueued during cooldown: %+v", st)
	}

	// Past the cooldown it retries (and fails again — the tool is still
	// /bin/false — which is how we observe the retry happened).
	clockMu.Lock()
	clock = clock.Add(2 * time.Hour)
	clockMu.Unlock()
	m.Observe("flaky.ttr", helloSrc)
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if m.Stats().BuildFailures >= 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no rebuild attempt after backoff: %+v", m.Stats())
}

func TestCompileErrorPinsProgram(t *testing.T) {
	m := New(Config{Threshold: 1, BuildDir: t.TempDir(), Logf: t.Logf})
	if !m.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	defer m.Close()

	m.Observe("broken.ttr", "def main(:\n")
	waitState(t, m, "broken.ttr", "def main(:\n", stateFailed, time.Minute)
	st := m.Stats()
	if st.CompileFailures != 1 || st.Pinned != 1 {
		t.Fatalf("compile error should pin: %+v", st)
	}
	// Pinned means pinned: more heat never re-enqueues.
	for i := 0; i < 5; i++ {
		m.Observe("broken.ttr", "def main(:\n")
	}
	time.Sleep(50 * time.Millisecond)
	if st := m.Stats(); st.CompileFailures != 1 || st.Pinned != 1 {
		t.Fatalf("pinned program re-entered the pipeline: %+v", st)
	}
}

func TestDemoteCoolsThenPins(t *testing.T) {
	clock := time.Now()
	m := New(Config{
		Threshold:      1,
		BuildDir:       t.TempDir(),
		RebuildBackoff: time.Hour,
		MaxDemotions:   2,
		Logf:           t.Logf,
		now:            func() time.Time { return clock },
	})
	if !m.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	defer m.Close()

	id := core.NewProgramID("demote.ttr", helloSrc)
	// Install a ready program directly — this test is about the demotion
	// state machine, not the build pipeline.
	seedReady := func() {
		m.mu.Lock()
		p := m.byKey[id]
		if p == nil {
			p = &program{file: "demote.ttr", src: helloSrc, id: id}
			m.byKey[id] = p
		}
		p.state = stateReady
		p.bin = "/nonexistent.bin"
		m.mu.Unlock()
	}

	seedReady()
	m.Demote(id, "killed by signal")
	if _, ok := m.Artifact("demote.ttr", helloSrc); ok {
		t.Fatal("artifact still served after demotion")
	}
	if st := m.Stats(); st.Demotions != 1 || st.Pinned != 0 {
		t.Fatalf("after first demotion: %+v", st)
	}
	// Demoting a non-ready program is a no-op (concurrent crashes of the
	// same artifact must not double-count).
	m.Demote(id, "again")
	if st := m.Stats(); st.Demotions != 1 {
		t.Fatalf("demotion double-counted: %+v", st)
	}

	seedReady()
	m.Demote(id, "killed again")
	st := m.Stats()
	if st.Demotions != 2 || st.Pinned != 1 {
		t.Fatalf("second demotion should pin to the VM: %+v", st)
	}
	// A pinned program never re-promotes, however hot.
	for i := 0; i < 3; i++ {
		m.Observe("demote.ttr", helloSrc)
	}
	time.Sleep(50 * time.Millisecond)
	if _, ok := m.Artifact("demote.ttr", helloSrc); ok {
		t.Fatal("pinned program re-promoted")
	}
}

// TestKeyDistinguishesPrograms: the Manager tracks hotness per program
// identity. File name and source each make a different program; the
// same (file, source) is the same program whether it arrives through
// Observe or through Dispatch with its precomputed ID.
func TestKeyDistinguishesPrograms(t *testing.T) {
	m := New(Config{Threshold: 1000, BuildDir: t.TempDir(), Logf: t.Logf})
	if !m.Enabled() {
		t.Skip("no Go toolchain/module; native tier disabled")
	}
	defer m.Close()

	m.Observe("a.ttr", helloSrc)
	m.Observe("b.ttr", helloSrc)
	m.Observe("a.ttr", helloSrc+"\n")
	if st := m.Stats(); st.Tracked != 3 {
		t.Fatalf("tracked %d programs, want 3 (file name and source both part of the key)", st.Tracked)
	}
	id := core.NewProgramID("a.ttr", helloSrc)
	m.Dispatch(id, "a.ttr", helloSrc)
	if st := m.Stats(); st.Tracked != 3 {
		t.Fatalf("tracked %d programs after a repeat, want 3 (key not deterministic)", st.Tracked)
	}
	m.mu.Lock()
	count := m.byKey[id].count
	m.mu.Unlock()
	if count != 2 {
		t.Errorf("a.ttr observed %d times, want 2", count)
	}
}

func TestDisabledManagerIsInert(t *testing.T) {
	// Point the build dir at a path that cannot be created: the Manager
	// must disable itself rather than fail requests later.
	bad := filepath.Join(string([]byte{0}), "nope")
	m := New(Config{Threshold: 1, BuildDir: bad, Logf: t.Logf})
	defer m.Close()
	if m.Enabled() {
		t.Skip("build dir unexpectedly creatable")
	}
	m.Observe("x.ttr", helloSrc) // must not panic or enqueue
	if _, ok := m.Artifact("x.ttr", helloSrc); ok {
		t.Fatal("disabled manager served an artifact")
	}
	m.Demote(core.NewProgramID("x.ttr", helloSrc), "?") // no-op
	if st := m.Stats(); st.Enabled || st.Tracked != 0 {
		t.Fatalf("disabled manager tracked state: %+v", st)
	}
}
