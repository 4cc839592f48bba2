package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssSampler polls a process's resident set size while a window runs
// and keeps the peak. Polling (not VmHWM) is used so the peak covers
// the measured window only, not the build that came before it, and so
// the harness's own process and the served child are measured alike.
type rssSampler struct {
	pid  int
	stop chan struct{}
	wg   sync.WaitGroup
	peak int64 // bytes; read after halt
}

func startRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{})}
	s.peak = readRSS(pid)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v := readRSS(s.pid); v > s.peak {
					s.peak = v
				}
			}
		}
	}()
	return s
}

// halt stops the sampler and returns the peak in MiB.
func (s *rssSampler) halt() float64 {
	close(s.stop)
	s.wg.Wait()
	if v := readRSS(s.pid); v > s.peak {
		s.peak = v
	}
	return float64(s.peak) / (1 << 20)
}

func readRSS(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// cpuSeconds returns utime+stime of a process. The kernel reports
// clock ticks, 100 per second on every Linux this runs on.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return float64(ut+st) / 100
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		p := root + "/" + e.Name()
		if e.IsDir() {
			total += dirBytes(p)
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}
