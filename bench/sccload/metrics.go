package main

import (
	"time"

	"sccpipe/bench/loadgen"
	"sccpipe/internal/serve"
	"sccpipe/internal/stats"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measured is the part of a run that the end-to-end metrics are taken
// from: the jobs attributed to the timed span, and what they delivered.
type measured struct {
	span      time.Duration // what throughput and CPU are divided by
	attempted int
	failed    int
	done      []loadgen.Sample // completed and verified
	latency   []loadgen.Sample // the subset percentiles are taken over
	frames    float64          // verified frames delivered in the span
	gaps      []float64        // ms between consecutive frames of a job
}

// framesOf is the number of frames a completed job stands for: frame parts
// delivered, or for a simulate job the frames it simulated.
func framesOf(s loadgen.Sample) float64 {
	if s.Job.Spec.Job.Mode == serve.ModeSimulate {
		return float64(s.Job.Spec.Job.Frames)
	}
	return float64(len(s.FrameAt))
}

// endOf is when the client was done with the job: the summary read, or for
// a job that failed the last thing it got (or, failing that, the send).
func endOf(s loadgen.Sample) time.Time {
	switch {
	case s.Done > 0:
		return s.Start.Add(s.Done)
	case len(s.FrameAt) > 0:
		return s.Start.Add(s.FrameAt[len(s.FrameAt)-1])
	}
	return s.Start
}

// gapsOf appends the job's inter-frame gaps whose later frame satisfies
// in. A simulate job delivers no frame parts; its period is its run time
// spread over the frames it simulated.
func gapsOf(gaps []float64, s loadgen.Sample, in func(time.Time) bool) []float64 {
	if s.Job.Spec.Job.Mode == serve.ModeSimulate {
		if s.OK() {
			gaps = append(gaps, ms(s.Done)/framesOf(s))
		}
		return gaps
	}
	for i := 1; i < len(s.FrameAt); i++ {
		if in(s.Start.Add(s.FrameAt[i])) {
			gaps = append(gaps, ms(s.FrameAt[i]-s.FrameAt[i-1]))
		}
	}
	return gaps
}

// measure attributes samples to the timed span. Closed loops: the window
// is laid over a continuous loop, so a job counts where it completes and a
// frame where it arrives. Open loop: a job belongs to the step it was due
// in; throughput, bytes, CPU and failures cover steps r1+r2 (the overload
// step r3 exists to be failed) and latency percentiles cover r2.
func measure(d *runData) measured {
	var m measured
	if d.cfg.W.Open {
		// The span runs to the last completion of a job due in it, so a
		// service that falls behind its arrivals shows a lower rate.
		m.span = d.edges[2]
		for _, s := range d.samples {
			if s.Step > 1 {
				continue
			}
			m.attempted++
			if !s.OK() {
				m.failed++
				continue
			}
			m.done = append(m.done, s)
			m.frames += framesOf(s)
			if end := endOf(s).Sub(d.t0); end > m.span {
				m.span = end
			}
			if s.Step == 1 {
				m.latency = append(m.latency, s)
				m.gaps = gapsOf(m.gaps, s, func(time.Time) bool { return true })
			}
		}
		return m
	}
	m.span = d.t1.Sub(d.t0)
	in := func(t time.Time) bool { return !t.Before(d.t0) && !t.After(d.t1) }
	for _, s := range d.samples {
		sim := s.Job.Spec.Job.Mode == serve.ModeSimulate
		if !sim {
			for _, at := range s.FrameAt {
				if in(s.Start.Add(at)) {
					m.frames++
				}
			}
			m.gaps = gapsOf(m.gaps, s, in)
		}
		if !in(endOf(s)) {
			continue
		}
		m.attempted++
		if !s.OK() {
			m.failed++
			continue
		}
		m.done = append(m.done, s)
		if sim {
			m.frames += framesOf(s)
			m.gaps = gapsOf(m.gaps, s, in)
		}
	}
	m.latency = m.done
	return m
}

// stepStats summarizes one open-loop step.
type stepStats struct {
	rate float64
	sent int // arrivals due in the step, overflow included
	met  int // completed, verified, within the limit of their due time
	// goodput is met divided by the time from the step's start to the last
	// of those jobs completing: the step's rate as the client measured it.
	goodput   float64
	rejected  int // refused at admission or dropped at the in-flight cap
	ttff, job []float64
	// backlog is the in-flight count at the step's last arrival minus that
	// at its first.
	backlog int
	holds   bool // ≥95 % met and no growing backlog
}

func openSteps(d *runData) [3]stepStats {
	var st [3]stepStats
	first := [3]int{-1, -1, -1}
	var firstDue, lastDue, lastMet [3]time.Time
	last := [3]int{}
	for _, s := range d.samples {
		t := &st[s.Step]
		t.sent++
		due := s.Due()
		if first[s.Step] < 0 || due.Before(firstDue[s.Step]) {
			first[s.Step], firstDue[s.Step] = s.Inflight, due
		}
		if due.After(lastDue[s.Step]) {
			last[s.Step], lastDue[s.Step] = s.Inflight, due
		}
		switch {
		case s.Overflow || s.Rejected():
			t.rejected++
		case s.OK():
			t.ttff = append(t.ttff, ms(s.TTFF()))
			t.job = append(t.job, ms(s.Latency()))
			if s.Latency() <= d.cfg.W.Limit {
				t.met++
				if end := endOf(s); end.After(lastMet[s.Step]) {
					lastMet[s.Step] = end
				}
			}
		}
	}
	for i := range st {
		st[i].rate = d.cfg.W.Rates[i]
		if st[i].met > 0 {
			st[i].goodput = float64(st[i].met) / lastMet[i].Sub(d.t0.Add(d.edges[i])).Seconds()
		}
		st[i].backlog = last[i] - first[i]
		st[i].holds = st[i].sent > 0 && float64(st[i].met) >= 0.95*float64(st[i].sent) && st[i].backlog <= 2
	}
	return st
}

// endToEnd computes the metrics a user of the service would see, from an
// untraced run.
func endToEnd(d *runData) (metrics, measured) {
	m := measure(d)
	out := metrics{}
	setups := make([]float64, len(d.setups))
	for i, s := range d.setups {
		setups[i] = s.Seconds()
	}
	out.set("setup_s", stats.Median(setups), "s")

	var ttff, job []float64
	var wire, framesDone float64
	for _, s := range m.latency {
		ttff = append(ttff, ms(s.TTFF()))
		job = append(job, ms(s.Latency()))
	}
	for _, s := range m.done {
		wire += float64(s.WireBytes)
		framesDone += framesOf(s)
	}
	span := m.span.Seconds()
	out.set("frames_per_s", m.frames/span, "1/s")
	out.set("jobs_per_s", float64(len(m.done))/span, "1/s")
	out.set("ttff_ms_p50", stats.Quantile(ttff, 0.50), "ms")
	out.set("ttff_ms_p95", stats.Quantile(ttff, 0.95), "ms")
	out.set("job_ms_p50", stats.Quantile(job, 0.50), "ms")
	out.set("job_ms_p95", stats.Quantile(job, 0.95), "ms")
	out.set("frame_gap_ms_p99", stats.Quantile(m.gaps, 0.99), "ms")
	out.set("wire_bytes_per_frame", wire/framesDone, "B")
	out.set("cpu_ms_per_frame", ms(d.cpu1-d.cpu0)/m.frames, "ms")
	out.set("peak_rss_mb", d.peakRSS, "MiB")

	// The highest offered rate the service holds, as the client measured
	// it (the step's goodput, a hair under its nominal rate). A closed loop
	// offers exactly what the service completes, so there it is the job
	// rate itself — provided nothing failed.
	rateOK := 0.0
	if d.cfg.W.Open {
		for _, st := range openSteps(d) {
			if st.holds && st.goodput > rateOK {
				rateOK = st.goodput
			}
		}
	} else if m.failed == 0 {
		rateOK = float64(len(m.done)) / span
	}
	out.set("rate_ok_jobs_per_s", rateOK, "1/s")
	return out, m
}
