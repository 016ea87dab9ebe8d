package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sccpipe/bench"
	"sccpipe/bench/client"
)

// regular builds n arrivals spaced gap apart.
func regular(n int, gap time.Duration) []bench.Arrival {
	sched := make([]bench.Arrival, n)
	for i := range sched {
		sched[i] = bench.Arrival{Due: time.Duration(i) * gap, Job: bench.Job{Index: i}}
	}
	return sched
}

// stamp plays the client's part: it stamps Start on entry and Done and a
// first frame on return.
func stamp(job bench.Job, serve func()) *client.Result {
	res := &client.Result{Job: job, Start: time.Now()}
	serve()
	res.Done = time.Since(res.Start)
	res.FrameAt = []time.Duration{res.Done}
	return res
}

// TestOpenLoopShowsAStall is the coordinated-omission check: the service
// freezes for 200 ms in the middle of a 100 req/s schedule. An open loop
// keeps sending, so every request due during the freeze waits out the
// rest of it and says so in its latency; a closed loop would have sent
// one request into the freeze and recorded one slow sample.
func TestOpenLoopShowsAStall(t *testing.T) {
	const gap = 10 * time.Millisecond
	const stallFrom, stallFor = 300 * time.Millisecond, 200 * time.Millisecond
	start := time.Now().Add(20 * time.Millisecond)
	stallEnd := start.Add(stallFrom + stallFor)
	do := func(_ context.Context, job bench.Job) *client.Result {
		return stamp(job, func() {
			if now := time.Now(); now.After(start.Add(stallFrom)) && now.Before(stallEnd) {
				time.Sleep(time.Until(stallEnd))
			}
		})
	}
	var samples []Sample
	Open(context.Background(), start, regular(80, gap), 64, do, func(s Sample) { samples = append(samples, s) })
	if len(samples) != 80 {
		t.Fatalf("%d samples for 80 arrivals", len(samples))
	}
	slow, maxInflight := 0, 0
	for _, s := range samples {
		if !s.OK() {
			t.Fatalf("job %d failed: %v", s.Job.Index, s.Err)
		}
		if s.Lag < 0 || s.Lag > 50*time.Millisecond {
			t.Errorf("job %d sent %v after it was due", s.Job.Index, s.Lag)
		}
		if want := start.Add(time.Duration(s.Job.Index) * gap); s.Due().Sub(want).Abs() > time.Microsecond {
			t.Errorf("job %d: Due() is %v off its scheduled time", s.Job.Index, s.Due().Sub(want))
		}
		due := s.Due().Sub(start)
		if due > stallFrom+5*time.Millisecond && due < stallFrom+stallFor-20*time.Millisecond {
			// Due inside the freeze: the latency from its due time must cover
			// what was left of the freeze.
			left := stallEnd.Sub(s.Due())
			if s.Latency() < left-5*time.Millisecond {
				t.Errorf("job %d due %v into the run took %v; %v of the stall was still ahead of it", s.Job.Index, due, s.Latency(), left)
			}
			slow++
		}
		if s.Inflight > maxInflight {
			maxInflight = s.Inflight
		}
	}
	if slow < 12 {
		t.Errorf("only %d requests were due during a 200 ms stall at 100 req/s", slow)
	}
	if maxInflight < 10 {
		t.Errorf("at most %d requests were outstanding: the loop waited for replies", maxInflight)
	}
}

func TestOpenLoopEnforcesTheInflightCap(t *testing.T) {
	release := make(chan struct{})
	var live, peak atomic.Int64
	do := func(_ context.Context, job bench.Job) *client.Result {
		return stamp(job, func() {
			if n := live.Add(1); n > peak.Load() {
				peak.Store(n)
			}
			<-release
			live.Add(-1)
		})
	}
	var samples []Sample
	go func() {
		time.Sleep(150 * time.Millisecond)
		close(release)
	}()
	Open(context.Background(), time.Now(), regular(10, time.Millisecond), 3, do, func(s Sample) { samples = append(samples, s) })
	overflow := 0
	for _, s := range samples {
		if s.Overflow {
			overflow++
			if s.OK() {
				t.Error("an overflow sample must count as failed")
			}
		}
	}
	if len(samples) != 10 || overflow != 7 || peak.Load() != 3 {
		t.Errorf("%d samples, %d overflowed, peak in flight %d; want 10, 7, 3", len(samples), overflow, peak.Load())
	}
}

func TestClosedLoopSendsOnCompletion(t *testing.T) {
	var mu sync.Mutex
	next, live, peak := 0, 0, 0
	take := func() (bench.Job, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == 20 {
			return bench.Job{}, false
		}
		next++
		return bench.Job{Index: next - 1}, true
	}
	do := func(_ context.Context, job bench.Job) *client.Result {
		return stamp(job, func() {
			mu.Lock()
			live++
			if live > peak {
				peak = live
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			live--
			mu.Unlock()
		})
	}
	seen := map[int]bool{}
	Closed(context.Background(), 2, take, do, func(s Sample) { seen[s.Job.Index] = true })
	if len(seen) != 20 || peak != 2 {
		t.Errorf("%d distinct jobs, peak in flight %d; want 20 and 2", len(seen), peak)
	}
}
