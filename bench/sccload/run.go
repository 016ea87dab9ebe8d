package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sccpipe/bench"
	"sccpipe/bench/client"
	"sccpipe/bench/loadgen"
	"sccpipe/bench/probe"
)

// runConfig is one measurement of one workload.
type runConfig struct {
	W      bench.Workload
	Seed   int64
	Window time.Duration
	// Warmup is the untimed stretch of load before the window opens.
	Warmup time.Duration
	// SetupReps is how many times the system is stood up and taken through
	// its first jobs; setup_s is the median, and the last one is measured.
	SetupReps int
	// Trace wraps the handlers in span recorders, scrapes /metrics around
	// the window and reads the runtime's counters: the per-layer run.
	Trace      bool
	FixedPorts bool
}

// runData is everything a run observed; metrics.go turns it into numbers.
type runData struct {
	cfg    runConfig
	setups []time.Duration
	// The timed window [t0, t1]; for the open loop edges holds the step
	// boundaries as offsets from t0.
	t0, t1 time.Time
	edges  [4]time.Duration
	// cpu0/cpu1 bracket the span CPU is charged over: the whole window for
	// closed loops, steps r1+r2 for the open loop.
	cpu0, cpu1 time.Duration
	// peakRSS is the resident-set high-water mark (MiB) read where cpu1 is:
	// before the oracle's reference renders, and for the open loop before
	// the overload step, whose pile-up of 64 in-flight jobs is chaotic.
	peakRSS float64
	samples []loadgen.Sample
	// firsts are the first completed job of each distinct spec, with pixel
	// sums kept for the reference check.
	firsts []*client.Result

	// Traced run only.
	proc0, proc1     probe.Proc
	scrape0, scrape1 probe.Series
	spans            []probe.Span
	goroutinePeak    int
}

// runner holds the live pieces of a run.
type runner struct {
	cfg  runConfig
	sys  *sut
	hc   *http.Client // the load clients' connections
	shc  *http.Client // the scraper's own, so it never waits for a load connection
	rec  *probe.Recorder
	data *runData
	mu   sync.Mutex      // guards seen, data.samples and data.firsts
	seen map[string]bool // spec keys whose first job has been taken
}

// do sends one job through the verifying client; the first job of each
// distinct spec keeps pixel sums for the reference check.
func (r *runner) do(ctx context.Context, job bench.Job) *client.Result {
	key := job.Spec.Key()
	r.mu.Lock()
	first := !r.seen[key]
	r.seen[key] = true
	r.mu.Unlock()
	res := client.Do(ctx, r.hc, r.sys.URL, job, first)
	if first {
		r.mu.Lock()
		if res.Err == nil {
			r.data.firsts = append(r.data.firsts, res)
		} else {
			delete(r.seen, key) // let a later job of the spec stand in
		}
		r.mu.Unlock()
	}
	return res
}

// emit collects a sample of the run.
func (r *runner) emit(s loadgen.Sample) {
	r.mu.Lock()
	r.data.samples = append(r.data.samples, s)
	r.mu.Unlock()
}

// firstWave takes a freshly stood-up system through its first jobs, one
// per client connection at once: caches fill and lazy set-up (pools, the
// simulate workload, HTTP connections) happens here, inside setup_s.
func (r *runner) firstWave(ctx context.Context, next func() (bench.Job, bool)) error {
	var wg sync.WaitGroup
	errs := make(chan error, r.cfg.W.Clients)
	for c := 0; c < r.cfg.W.Clients; c++ {
		job, _ := next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := r.do(ctx, job); res.Err != nil {
				errs <- fmt.Errorf("set-up job %d (%s): %w", job.Index, job.Spec.Key(), res.Err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// run executes the whole measurement: repeated set-up, warm-up, the timed
// window, drain.
func run(ctx context.Context, cfg runConfig) (*runData, error) {
	w := cfg.W
	data := &runData{cfg: cfg}
	r := &runner{cfg: cfg, data: data}
	clients := w.Clients
	if w.Open {
		clients = w.InflightCap
	}
	r.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	defer r.hc.CloseIdleConnections()
	r.shc = &http.Client{Timeout: 5 * time.Second}
	defer r.shc.CloseIdleConnections()

	// The job sequence: one shared counter, so the order of jobs is fixed
	// by the seed whichever client takes which.
	var counter atomic.Int64
	var closed atomic.Bool
	next := func() (bench.Job, bool) {
		if closed.Load() {
			return bench.Job{}, false
		}
		i := int(counter.Add(1) - 1)
		if w.Open {
			return w.WarmJob(cfg.Seed, i), true
		}
		return w.Job(cfg.Seed, i), true
	}

	for rep := 0; rep < cfg.SetupReps; rep++ {
		if r.sys != nil {
			r.sys.Close()
			r.hc.CloseIdleConnections()
		}
		// Every repetition starts from the same place: the spec bookkeeping,
		// job sequence and (traced) span record of a fresh process.
		r.seen = make(map[string]bool)
		data.firsts = nil
		counter.Store(0)
		if cfg.Trace {
			r.rec = &probe.Recorder{}
		}
		t := time.Now()
		sys, err := standUp(w, r.rec, cfg.FixedPorts)
		if err != nil {
			return nil, err
		}
		r.sys = sys
		if err := r.firstWave(ctx, next); err != nil {
			sys.Close()
			return nil, err
		}
		data.setups = append(data.setups, time.Since(t))
	}
	defer r.sys.Close()

	var gp *probe.GoroutinePeak
	if cfg.Trace {
		gp = probe.WatchGoroutines(20 * time.Millisecond)
	}
	var err error
	if w.Open {
		err = r.openLoop(ctx, next, &closed)
	} else {
		err = r.closedLoop(ctx, next, &closed)
	}
	if gp != nil {
		data.goroutinePeak = gp.Stop()
	}
	if r.rec != nil {
		data.spans = r.rec.Spans()
	}
	return data, err
}

// openWindow snapshots the counters at the start of the timed window.
func (r *runner) openWindow(ctx context.Context) error {
	d := r.data
	if r.cfg.Trace {
		s, err := probe.Scrape(ctx, r.shc, r.sys.MetricsURL())
		if err != nil {
			return err
		}
		d.scrape0 = s
		d.proc0 = probe.ReadProc()
	}
	return nil
}

// closeWindow snapshots the counters at the end of the timed window.
func (r *runner) closeWindow(ctx context.Context) error {
	d := r.data
	if r.cfg.Trace {
		d.proc1 = probe.ReadProc()
		s, err := probe.Scrape(ctx, r.shc, r.sys.MetricsURL())
		if err != nil {
			return err
		}
		d.scrape1 = s
	}
	return nil
}

// cacheWarm reports whether the render cache served every lookup between
// two scrapes, with at least one lookup made.
func cacheWarm(before, after probe.Series) bool {
	h0, _ := before.Sum("sccserve_cache_hits_total")
	m0, _ := before.Sum("sccserve_cache_misses_total")
	h1, err1 := after.Sum("sccserve_cache_hits_total")
	m1, err2 := after.Sum("sccserve_cache_misses_total")
	return err1 == nil && err2 == nil && m1 == m0 && h1 > h0
}

// closedLoop runs warm-up and the timed window as one uninterrupted closed
// loop; the window is a pair of timestamps laid over it, so there is no
// ramp inside the measurement. It ends the loop when the window closes
// and waits for the in-flight jobs, which are not counted.
func (r *runner) closedLoop(ctx context.Context, next func() (bench.Job, bool), closed *atomic.Bool) error {
	d := r.data
	done := make(chan struct{})
	go func() {
		defer close(done)
		loadgen.Closed(ctx, r.cfg.W.Clients, next, r.do, r.emit)
	}()
	stop := func() { closed.Store(true); <-done }

	if !sleepCtx(ctx, r.cfg.Warmup) {
		stop()
		return ctx.Err()
	}
	if r.cfg.W.WarmCache {
		// Keep warming until the cache has served every lookup of a whole
		// 250 ms stretch of load.
		deadline := time.Now().Add(10 * time.Second)
		for {
			before, err := probe.Scrape(ctx, r.shc, r.sys.MetricsURL())
			if err != nil {
				stop()
				return err
			}
			sleepCtx(ctx, 250*time.Millisecond)
			after, err := probe.Scrape(ctx, r.shc, r.sys.MetricsURL())
			if err != nil {
				stop()
				return err
			}
			if cacheWarm(before, after) {
				break
			}
			if time.Now().After(deadline) {
				stop()
				return fmt.Errorf("render cache never became warm during warm-up")
			}
		}
	}
	if err := r.openWindow(ctx); err != nil {
		stop()
		return err
	}
	d.t0 = time.Now()
	d.cpu0 = probe.ReadCPU()
	ok := sleepCtx(ctx, r.cfg.Window)
	d.cpu1 = probe.ReadCPU()
	d.t1 = time.Now()
	d.peakRSS, _ = probe.PeakRSSMB()
	err := r.closeWindow(ctx)
	stop()
	if !ok {
		return ctx.Err()
	}
	return err
}

// openLoop warms the system with a short closed loop on specs outside the
// population, then plays the seeded arrival schedule. Jobs still
// outstanding one latency limit after the window closes have missed the
// limit whatever happens next, so they are cancelled rather than awaited.
func (r *runner) openLoop(ctx context.Context, next func() (bench.Job, bool), closed *atomic.Bool) error {
	d, w := r.data, r.cfg.W
	wctx, cancelWarm := context.WithCancel(ctx)
	warmDone := make(chan struct{})
	go func() {
		defer close(warmDone)
		// Warm-up results are not samples of the run.
		loadgen.Closed(wctx, w.Clients, next, r.do, func(loadgen.Sample) {})
	}()
	okWarm := sleepCtx(ctx, r.cfg.Warmup)
	closed.Store(true)
	<-warmDone
	cancelWarm()
	if !okWarm {
		return ctx.Err()
	}

	sched := w.Schedule(r.cfg.Seed, r.cfg.Window)
	d.edges = w.StepWindows(r.cfg.Window)
	if err := r.openWindow(ctx); err != nil {
		return err
	}
	d.t0 = time.Now().Add(5 * time.Millisecond)
	d.t1 = d.t0.Add(r.cfg.Window)
	// CPU and memory are charged over steps r1+r2 only: the overload
	// step's rejected work is not what a frame costs.
	cpuDone := make(chan struct{})
	go func() {
		defer close(cpuDone)
		sleepCtx(ctx, time.Until(d.t0))
		d.cpu0 = probe.ReadCPU()
		sleepCtx(ctx, time.Until(d.t0.Add(d.edges[2])))
		d.cpu1 = probe.ReadCPU()
		d.peakRSS, _ = probe.PeakRSSMB()
	}()
	octx, cancel := context.WithDeadline(ctx, d.t1.Add(w.Limit+50*time.Millisecond))
	defer cancel()
	loadgen.Open(octx, d.t0, sched, w.InflightCap, r.do, r.emit)
	<-cpuDone
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.closeWindow(ctx)
}

// sleepCtx sleeps d unless ctx ends first; reports whether it completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
