package probe

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Proc is a snapshot of the process's own cost counters.
type Proc struct {
	CPU        time.Duration // user+sys, getrusage(RUSAGE_SELF)
	AllocBytes uint64
	Allocs     uint64
	GCPause    time.Duration
	GCCycles   uint32
}

// ReadCPU returns the process's cumulative user+system CPU time.
func ReadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ReadProc snapshots CPU and the Go runtime's allocation and GC counters.
// It stops the world briefly (runtime.ReadMemStats), so the untraced run
// calls ReadCPU alone.
func ReadProc() Proc {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Proc{
		CPU:        ReadCPU(),
		AllocBytes: ms.TotalAlloc,
		Allocs:     ms.Mallocs,
		GCPause:    time.Duration(ms.PauseTotalNs),
		GCCycles:   ms.NumGC,
	}
}

// PeakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB from /proc/self/status.
func PeakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("probe: bad VmHWM line %q", sc.Text())
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("probe: no VmHWM in /proc/self/status")
}

// GoroutinePeak samples runtime.NumGoroutine until stopped.
type GoroutinePeak struct {
	stop chan struct{}
	done sync.WaitGroup
	peak int
}

// WatchGoroutines starts sampling every interval.
func WatchGoroutines(interval time.Duration) *GoroutinePeak {
	g := &GoroutinePeak{stop: make(chan struct{})}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if n := runtime.NumGoroutine(); n > g.peak {
				g.peak = n
			}
			select {
			case <-t.C:
			case <-g.stop:
				return
			}
		}
	}()
	return g
}

// Stop ends sampling and returns the highest count seen.
func (g *GoroutinePeak) Stop() int {
	close(g.stop)
	g.done.Wait()
	return g.peak
}
