package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"
)

// descendants lists the live processes below pid (children, their
// children, ...), read from /proc.
func descendants(pid int) []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	kids := make(map[int][]int)
	for _, e := range entries {
		p, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if pp, ok := parentOf(p); ok {
			kids[pp] = append(kids[pp], p)
		}
	}
	var out []int
	queue := []int{pid}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, c := range kids[p] {
			out = append(out, c)
			queue = append(queue, c)
		}
	}
	return out
}

// parentOf reads the parent pid from /proc/<pid>/stat. The command name
// may hold spaces and parentheses, so fields are counted after the last ')'.
func parentOf(pid int) (int, bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, false
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, false
	}
	f := bytes.Fields(b[i+1:])
	if len(f) < 2 {
		return 0, false
	}
	pp, err := strconv.Atoi(string(f[1]))
	return pp, err == nil
}

// rssKiB reads VmRSS of one process (0 for zombies and vanished pids).
func rssKiB(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	i := bytes.Index(b, []byte("VmRSS:"))
	if i < 0 {
		return 0
	}
	f := bytes.Fields(b[i+len("VmRSS:"):])
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseInt(string(f[0]), 10, 64)
	return v
}

// treeRSSKiB is the summed RSS of this process and every descendant.
func treeRSSKiB() int64 {
	self := os.Getpid()
	total := rssKiB(self)
	for _, p := range descendants(self) {
		total += rssKiB(p)
	}
	return total
}

// rssSampler tracks the RSS of the benchmark's process tree while it
// runs, sampling /proc every tick.
type rssSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peak  int64     // KiB, the largest sample; read after wg.Wait
	peaks []float64 // KiB, the largest sample of each one-second window
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		window, peak := time.Now(), treeRSSKiB()
		for {
			select {
			case <-s.stop:
				peak = max(peak, treeRSSKiB())
				s.peak = max(s.peak, peak)
				s.peaks = append(s.peaks, float64(peak))
				return
			case <-t.C:
				peak = max(peak, treeRSSKiB())
				if time.Since(window) >= time.Second {
					s.peak = max(s.peak, peak)
					s.peaks = append(s.peaks, float64(peak))
					window, peak = time.Now(), 0
				}
			}
		}
	}()
	return s
}

// Stop ends sampling and returns, in MiB, the median over one-second
// windows of each window's peak, and the peak over the whole measured
// phase. The window median is the reported metric: the single peak is
// set by when the garbage collector and short-lived native processes
// happened to coincide, and spreads 0.19-0.23 (IQR/median over ten
// runs) on serve-hot and parallel-compute against at most 0.015 for the
// window median. It is printed beside it, so a short spike still shows.
func (s *rssSampler) Stop() (windowMedian, peak float64) {
	close(s.stop)
	s.wg.Wait()
	return median(s.peaks) / 1024, float64(s.peak) / 1024
}

// checkNoOrphans waits up to wait for every child process to be gone and
// reports the survivors otherwise: after teardown the benchmark's
// process tree must be just itself.
func checkNoOrphans(wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		left := descendants(os.Getpid())
		if len(left) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d child process(es) survived teardown: %v", len(left), left)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
