package main

import (
	"fmt"

	"sccpipe/bench"
)

// runSeconds is the length of the timed window the driver asks for. The
// contract allows 4 + 22 × 4 workloads = 92 runs and two builds in 3420 s,
// which leaves about 35 s a run; set-up repetitions, warm-up, drain and the
// reference checks take 6–7 s of that.
const runSeconds = 25

// metricDef registers one metric: BENCHMARK.json is generated from these
// tables (sccload -manifest) and a test holds the committed file to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is a regression; unused for per-layer
	// metrics, which have no bound.
	Bound float64
}

// endToEndDefs are the metrics a client of the service sees, taken from
// an untraced run. Every workload reports every one; for sim_batch a
// "frame" is a simulated frame and the "first frame" is the first byte of
// the reply (see bench/README.md). Each bound is at least three times the
// interquartile spread the metric showed over ten seeds on its noisiest
// workload (the A/A tables in bench/README.md), and where that allowed it
// is the bound the defining issue asked for. The one exception is
// ttff_ms_p95, capped at the contract's 0.25: on open_mixed_fleet its
// ten-seed spread read 0.13 in one A/A pair and 0.02 in the other.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.07},
	{"jobs_per_s", "1/s", "higher", 0.07},
	{"ttff_ms_p50", "ms", "lower", 0.20},
	{"ttff_ms_p95", "ms", "lower", 0.25},
	{"job_ms_p50", "ms", "lower", 0.12},
	{"job_ms_p95", "ms", "lower", 0.20},
	{"frame_gap_ms_p99", "ms", "lower", 0.25},
	{"wire_bytes_per_frame", "B", "lower", 0.015},
	{"cpu_ms_per_frame", "ms", "lower", 0.08},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"rate_ok_jobs_per_s", "1/s", "higher", 0.25},
}

// perLayerDefs are the metrics of single layers, taken from a traced run.
// The prefix is the layer (module) name.
var perLayerDefs = func() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		var out []metricDef
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
		return out
	}
	higher := func(unit string, names ...string) []metricDef {
		out := lower(unit, names...)
		for i := range out {
			out[i].Better = "higher"
		}
		return out
	}
	var defs []metricDef
	add := func(d []metricDef) { defs = append(defs, d...) }

	// Replays of each layer's public calls.
	add(lower("ms", "scene.city_ms", "render.octree_build_ms", "core.build_workload_ms",
		"plan.model_profile_ms", "plan.compute_ms",
		"render.frame_ms", "render.strip_ms"))
	add(lower("count", "render.tris_binned_per_frame"))
	add(lower("ms", "rcache.hit_ms", "rcache.miss_overhead_ms",
		"filters.sepia_ms", "filters.blur_ms", "filters.tail_fused_ms", "filters.chain_ms",
		"frame.split_assemble_ms"))
	add(lower("us", "frame.pool_get_put_us", "band.run_overhead_us"))
	add(lower("ms", "frame.png_encode_ms", "frame.png_decode_ms", "serve.digest_png_ms",
		"codec.delta_encode_hold_ms", "codec.delta_encode_motion_ms", "codec.delta_decode_ms",
		"serve.digest_raw_ms"))
	add(lower("ratio", "codec.delta_ratio_hold", "codec.delta_ratio_motion"))
	add(higher("ratio", "codec.scheme_share.rlehuff", "codec.scheme_share.png"))
	add(lower("ratio", "codec.scheme_share.key"))
	add(lower("ms", "core.exec_ms_per_frame", "core.exec_first_frame_ms"))
	add(lower("us", "pipe.run_overhead_us_per_item"))
	add(lower("ms", "core.simulate_ms", "pipe.simulate_ms"))
	add(higher("1/s", "des.events_per_s"))

	// Spans around the handlers the benchmark mounts, and the harness's
	// own share.
	add(lower("ms", "serve.handler_ms_p50", "serve.first_write_ms_p50",
		"serve.write_gap_ms_p50", "serve.write_gap_ms_p99",
		"fleet.handler_ms_p50", "fleet.self_ms_p50",
		"fleet.frame_relay_lag_ms_p50", "fleet.frame_relay_lag_ms_p99"))
	add(lower("ratio", "fleet.attempts_per_job"))
	add(lower("ms", "client.net_ms_p50", "client.verify_ms_per_frame", "client.frame_gap_ms_p50", "loadgen.lag_ms_p99"))
	for step := 1; step <= 3; step++ {
		p := fmt.Sprintf("open.r%d.", step)
		add(lower("ms", p+"ttff_ms_p50", p+"job_ms_p95"))
		add(higher("ratio", p+"met_ratio"))
		add(lower("ratio", p+"reject_ratio"))
		add(higher("1/s", p+"jobs_per_s"))
	}

	// /metrics deltas across the timed window.
	for _, kind := range stageKinds {
		add(lower("s", "core.stage_busy_s."+kind))
	}
	add(lower("s", "serve.job_busy_s"))
	add(lower("ratio", "serve.util"))
	add(higher("count", "serve.jobs_accepted"))
	add(lower("count", "serve.jobs_rejected.queue_full"))
	add(higher("count", "serve.frames_served"))
	add(lower("B", "serve.stream_png_bytes", "serve.stream_delta_bytes"))
	add(higher("count", "rcache.hits"))
	add(lower("count", "rcache.misses", "rcache.evictions"))
	add(higher("count", "rcache.dedups"))
	add(higher("ratio", "rcache.hit_ratio"))
	add(lower("count", "render.tris_setup", "render.tris_binned", "render.tiles_touched"))
	add(higher("count", "render.bins_rejected"))
	add(higher("count", "fleet.jobs_accepted"))
	add(lower("count", "fleet.jobs_rejected", "fleet.jobs_queued", "fleet.queue_evicted"))
	add(higher("count", "fleet.frames_relayed"))
	add(lower("count", "fleet.frames_discarded"))
	add(higher("ratio", "fleet.affinity_ratio"))
	add(lower("count", "fleet.retries", "fleet.stream_stalls"))
	add(lower("ratio", "fleet.worker_job_skew"))

	// Go runtime and OS counters of the whole process, and what the
	// benchmark itself costs.
	add(lower("s", "proc.cpu_s"))
	add(lower("B", "proc.alloc_bytes_per_frame"))
	add(lower("count", "proc.allocs_per_frame"))
	add(lower("ms", "proc.gc_pause_ms_total"))
	add(lower("count", "proc.gc_cycles", "proc.goroutines_peak"))
	add(lower("ratio", "trace.overhead_share"))
	// fail_ratio sits here because the contract wants end-to-end metrics
	// that are never 0; the driver sees failures as attempted/failed.
	// (client.frame_gap_ms_p50 above is here for failing to repeat within a
	// tenth on open_mixed_fleet; see bench/README.md.)
	add(lower("ratio", "fail_ratio"))
	return defs
}()

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range bench.Workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.Name, w.Why})
	}
	for _, d := range endToEndDefs {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
