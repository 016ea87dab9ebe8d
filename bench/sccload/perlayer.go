package main

import (
	"fmt"
	"math"
	"time"

	"sccpipe/bench/loadgen"
	"sccpipe/bench/probe"
	"sccpipe/bench/replay"
	"sccpipe/internal/stats"
)

// stageKinds are the stage labels of sccserve_stage_busy_seconds_total
// that a real (exec) run charges.
var stageKinds = []string{"render", "sepia", "blur", "scratch", "flicker", "swap", "transfer"}

// clientSpans turns the client's own timestamps into spans, so one CSV
// carries the whole chain client → fleet → serve.
func clientSpans(samples []loadgen.Sample) []probe.Span {
	var out []probe.Span
	for _, s := range samples {
		if s.Overflow {
			continue
		}
		out = append(out, probe.Span{Name: "client.job", Job: s.Job.Seed(), Start: s.Start, End: endOf(s), Arg: s.Status})
		prev := s.Start
		for i, at := range s.FrameAt {
			out = append(out, probe.Span{Name: "client.frame", Job: s.Job.Seed(), Start: prev, End: s.Start.Add(at), Arg: i})
			prev = s.Start.Add(at)
		}
	}
	return out
}

// allSpans merges handler and client spans, numbers them and links
// parents.
func allSpans(d *runData) []probe.Span {
	spans := append(append([]probe.Span(nil), d.spans...), clientSpans(d.samples)...)
	for i := range spans {
		spans[i].ID = i + 1
	}
	probe.Link(spans)
	return spans
}

// spanMetrics derives the handler-level numbers from the spans whose end
// falls in the timed window.
func spanMetrics(out metrics, d *runData, spans []probe.Span, m measured) {
	in := func(t time.Time) bool { return !t.Before(d.t0) && !t.After(d.t1.Add(d.cfg.W.Limit)) }
	type jobSpans struct {
		serve, fleet []probe.Span
		serveFrame   map[int]time.Time
		fleetFrame   map[int]time.Time
	}
	jobs := make(map[int64]*jobSpans)
	get := func(id int64) *jobSpans {
		js := jobs[id]
		if js == nil {
			js = &jobSpans{serveFrame: map[int]time.Time{}, fleetFrame: map[int]time.Time{}}
			jobs[id] = js
		}
		return js
	}
	var serveDur, serveHead, serveGap, fleetDur []float64
	for _, s := range spans {
		if !in(s.End) {
			continue
		}
		switch s.Name {
		case "serve.handler":
			get(s.Job).serve = append(get(s.Job).serve, s)
			if s.Arg == 200 {
				serveDur = append(serveDur, ms(s.Dur()))
			}
		case "serve.head":
			if s.Arg == 200 { // a refusal's first byte is not a first frame
				serveHead = append(serveHead, ms(s.Dur()))
			}
		case "serve.frame":
			get(s.Job).serveFrame[s.Arg] = s.End // a later attempt's replay overwrites
			if s.Arg > 0 {
				serveGap = append(serveGap, ms(s.Dur()))
			}
		case "fleet.handler":
			get(s.Job).fleet = append(get(s.Job).fleet, s)
			if s.Arg == 200 {
				fleetDur = append(fleetDur, ms(s.Dur()))
			}
		case "fleet.frame":
			get(s.Job).fleetFrame[s.Arg] = s.End
		}
	}
	out.set("serve.handler_ms_p50", stats.Quantile(serveDur, 0.5), "ms")
	out.set("serve.first_write_ms_p50", stats.Quantile(serveHead, 0.5), "ms")
	if len(serveGap) > 0 {
		out.set("serve.write_gap_ms_p50", stats.Quantile(serveGap, 0.5), "ms")
		out.set("serve.write_gap_ms_p99", stats.Quantile(serveGap, 0.99), "ms")
	}

	// The chain client → fleet self → serve: what each hop adds.
	var clientNet, fleetSelf, relayLag []float64
	attempts, gatewayJobs := 0, 0
	for _, s := range m.done {
		js := jobs[s.Job.Seed()]
		if js == nil {
			continue
		}
		top := js.serve
		if d.cfg.W.Fleet {
			top = js.fleet
		}
		if len(top) == 1 {
			clientNet = append(clientNet, ms(s.Done-top[0].Dur()))
		}
		if d.cfg.W.Fleet && len(js.fleet) == 1 {
			gatewayJobs++
			attempts += len(js.serve)
			fleetSelf = append(fleetSelf, ms(probe.SelfTime(js.fleet[0], js.serve)))
			for idx, at := range js.fleetFrame {
				if w, ok := js.serveFrame[idx]; ok {
					relayLag = append(relayLag, ms(at.Sub(w)))
				}
			}
		}
	}
	out.set("client.net_ms_p50", stats.Quantile(clientNet, 0.5), "ms")
	if d.cfg.W.Fleet {
		out.set("fleet.handler_ms_p50", stats.Quantile(fleetDur, 0.5), "ms")
		out.set("fleet.self_ms_p50", stats.Quantile(fleetSelf, 0.5), "ms")
		if len(relayLag) > 0 {
			out.set("fleet.frame_relay_lag_ms_p50", stats.Quantile(relayLag, 0.5), "ms")
			out.set("fleet.frame_relay_lag_ms_p99", stats.Quantile(relayLag, 0.99), "ms")
		}
		out.set("fleet.attempts_per_job", float64(attempts)/float64(gatewayJobs), "ratio")
	}
}

// scrapeMetrics reads the /metrics delta across the window. A family that
// has gone missing is an error: the series are part of the contract this
// benchmark holds the service to.
func scrapeMetrics(out metrics, d *runData) error {
	var firstErr error
	delta := func(name string, match ...string) float64 {
		a, err := d.scrape1.Sum(name, match...)
		if err == nil {
			var b float64
			b, err = d.scrape0.Sum(name, match...)
			a -= b
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return a
	}
	window := d.t1.Sub(d.t0).Seconds()
	workers := 1
	if d.cfg.W.Fleet {
		workers = 2
	}
	perWorker := d.cfg.W.Worker.Workers
	if perWorker == 0 {
		perWorker = 2 // serve.Config's default
	}

	for _, kind := range stageKinds {
		out.set("core.stage_busy_s."+kind, delta("sccserve_stage_busy_seconds_total", "backend", "exec", "stage", kind), "s")
	}
	busy := delta("sccserve_job_busy_seconds_total")
	out.set("serve.job_busy_s", busy, "s")
	out.set("serve.util", busy/(window*float64(workers*perWorker)), "ratio")
	out.set("serve.jobs_accepted", delta("sccserve_jobs_accepted_total"), "count")
	out.set("serve.jobs_rejected.queue_full", delta("sccserve_jobs_rejected_total", "reason", "queue_full"), "count")
	out.set("serve.frames_served", delta("sccserve_frames_served_total"), "count")
	out.set("serve.stream_png_bytes", delta("sccserve_stream_png_bytes_total"), "B")
	out.set("serve.stream_delta_bytes", delta("sccserve_stream_delta_bytes_total"), "B")

	hits, misses := delta("sccserve_cache_hits_total"), delta("sccserve_cache_misses_total")
	out.set("rcache.hits", hits, "count")
	out.set("rcache.misses", misses, "count")
	out.set("rcache.evictions", delta("sccserve_cache_evictions_total"), "count")
	out.set("rcache.dedups", delta("sccserve_cache_dedup_total"), "count")
	if hits+misses > 0 {
		out.set("rcache.hit_ratio", hits/(hits+misses), "ratio")
	}
	out.set("render.tris_setup", delta("sccserve_render_tris_setup_total"), "count")
	out.set("render.tris_binned", delta("sccserve_render_tris_binned_total"), "count")
	out.set("render.tiles_touched", delta("sccserve_render_tiles_touched_total"), "count")
	out.set("render.bins_rejected", delta("sccserve_render_bins_rejected_total"), "count")

	if d.cfg.W.Fleet {
		out.set("fleet.jobs_accepted", delta("sccgate_jobs_accepted_total"), "count")
		out.set("fleet.jobs_rejected", delta("sccgate_jobs_rejected_total"), "count")
		out.set("fleet.jobs_queued", delta("sccgate_jobs_queued_total"), "count")
		out.set("fleet.queue_evicted", delta("sccgate_queue_evicted_total"), "count")
		out.set("fleet.frames_relayed", delta("sccgate_frames_relayed_total"), "count")
		out.set("fleet.frames_discarded", delta("sccgate_frames_discarded_total"), "count")
		out.set("fleet.retries", delta("sccgate_job_retries_total"), "count")
		out.set("fleet.stream_stalls", delta("sccgate_stream_stalls_total"), "count")
		routed := delta("sccgate_worker_jobs_total")
		if routed > 0 {
			// Every job not steered away by load went to the worker whose
			// cache is warm for it.
			out.set("fleet.affinity_ratio", 1-delta("sccgate_affinity_overridden_total")/routed, "ratio")
			before, after := d.scrape0.By("sccgate_worker_jobs_total", "worker"), d.scrape1.By("sccgate_worker_jobs_total", "worker")
			lo, hi := math.Inf(1), 0.0
			for worker, n := range after {
				n -= before[worker]
				lo, hi = math.Min(lo, n), math.Max(hi, n)
			}
			if len(after) < workers {
				lo = 0 // a worker that never got a job has no series yet
			}
			out.set("fleet.worker_job_skew", (hi-lo)/routed, "ratio")
		}
	}
	return firstErr
}

// perLayer computes the per-layer metrics of a traced run: replayed layer
// costs, span-derived handler numbers, /metrics deltas, and the process's
// own counters. untracedFPS, when known, is the frames_per_s of the last
// untraced run of the same workload and length, for the tracing overhead.
func perLayer(d *runData, costs replay.Costs, spans []probe.Span, untracedFPS float64) (metrics, measured, error) {
	m := measure(d)
	out := metrics{}
	for name, v := range costs {
		out.set(name, v.V, v.Unit)
	}
	spanMetrics(out, d, spans, m)
	if err := scrapeMetrics(out, d); err != nil {
		return nil, m, err
	}

	var verify time.Duration
	var lags []float64
	var schemes [4]float64
	for _, s := range m.done {
		verify += s.Verify
		for i, n := range s.Schemes {
			schemes[i] += float64(n)
		}
	}
	for _, s := range d.samples {
		lags = append(lags, ms(s.Lag))
	}
	out.set("client.verify_ms_per_frame", ms(verify)/m.frames, "ms")
	out.set("client.frame_gap_ms_p50", stats.Quantile(m.gaps, 0.5), "ms")
	out.set("loadgen.lag_ms_p99", stats.Quantile(lags, 0.99), "ms")
	if total := schemes[1] + schemes[2] + schemes[3]; total > 0 {
		out.set("codec.scheme_share.rlehuff", schemes[1]/total, "ratio")
		out.set("codec.scheme_share.png", schemes[2]/total, "ratio")
		out.set("codec.scheme_share.key", schemes[3]/total, "ratio")
	}
	out.set("fail_ratio", float64(m.failed)/float64(m.attempted), "ratio")

	if d.cfg.W.Open {
		for i, st := range openSteps(d) {
			p := fmt.Sprintf("open.r%d.", i+1)
			dur := (d.edges[i+1] - d.edges[i]).Seconds()
			out.set(p+"ttff_ms_p50", stats.Quantile(st.ttff, 0.5), "ms")
			out.set(p+"job_ms_p95", stats.Quantile(st.job, 0.95), "ms")
			out.set(p+"met_ratio", float64(st.met)/float64(st.sent), "ratio")
			out.set(p+"reject_ratio", float64(st.rejected)/float64(st.sent), "ratio")
			out.set(p+"jobs_per_s", float64(len(st.job))/dur, "1/s")
		}
	}

	// The process counters span the whole window, so they are spread over
	// every frame delivered in it — for the open loop, step r3's too.
	frames := m.frames
	if d.cfg.W.Open {
		frames = 0
		for _, s := range d.samples {
			if s.OK() {
				frames += framesOf(s)
			}
		}
	}
	out.set("proc.cpu_s", (d.proc1.CPU - d.proc0.CPU).Seconds(), "s")
	out.set("proc.alloc_bytes_per_frame", float64(d.proc1.AllocBytes-d.proc0.AllocBytes)/frames, "B")
	out.set("proc.allocs_per_frame", float64(d.proc1.Allocs-d.proc0.Allocs)/frames, "count")
	out.set("proc.gc_pause_ms_total", ms(d.proc1.GCPause-d.proc0.GCPause), "ms")
	out.set("proc.gc_cycles", float64(d.proc1.GCCycles-d.proc0.GCCycles), "count")
	out.set("proc.goroutines_peak", float64(d.goroutinePeak), "count")
	if untracedFPS > 0 {
		out.set("trace.overhead_share", 1-(m.frames/m.span.Seconds())/untracedFPS, "ratio")
	}
	for name, v := range out {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			delete(out, name) // a percentile over no samples: nothing to report
		}
	}
	return out, m, nil
}
