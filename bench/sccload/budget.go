package main

import (
	"fmt"
	"strings"

	"sccpipe/internal/stats"
)

// budgetTable renders the traced run's Fig. 8-style budget: per delivered
// frame, the replayed cost of each layer times how often a frame pays it
// on this workload, summed against the CPU the process actually spent per
// frame; and per job, the chain client → fleet self → serve → residual.
func budgetTable(d *runData, pl metrics, m measured) string {
	var b strings.Builder
	get := func(name string) float64 { return pl[name].Value }
	fmt.Fprintf(&b, "\nbudget %s (traced run, seed %d)\n", d.cfg.W.Name, d.cfg.Seed)

	if d.cfg.W.Replays.Pixels && m.frames > 0 {
		var deltaFrames, rawFrames float64
		for _, s := range m.done {
			if s.Job.Spec.Delta {
				deltaFrames += framesOf(s)
			} else {
				rawFrames += framesOf(s)
			}
		}
		delta := deltaFrames / (deltaFrames + rawFrames)
		raw := 1 - delta
		hit := get("rcache.hit_ratio")
		hops := 2.0 // the worker computes each digest, the client checks it
		decoders := 1.0
		if d.cfg.W.Fleet {
			hops, decoders = 3, 2 // and the gateway's relay does both again
		}
		key := get("codec.scheme_share.key")

		cpu := get("proc.cpu_s") * 1000 / get("serve.frames_served")
		type row struct {
			layer string
			times float64
			cost  float64
		}
		rows := []row{
			{"render.frame_ms", 1 - hit, get("render.frame_ms")},
			{"rcache.hit_ms", hit, get("rcache.hit_ms")},
			{"rcache.miss_overhead_ms", 1 - hit, get("rcache.miss_overhead_ms")},
			{"filters.chain_ms", 1, get("filters.chain_ms")},
			{"frame.png_encode_ms", raw, get("frame.png_encode_ms")},
			{"serve.digest_png_ms", raw * hops, get("serve.digest_png_ms")},
			{"codec.delta_encode_hold_ms", delta * (1 - key), get("codec.delta_encode_hold_ms")},
			{"codec.delta_encode_motion_ms", delta * key, get("codec.delta_encode_motion_ms")},
			{"codec.delta_decode_ms", delta * decoders, get("codec.delta_decode_ms")},
			{"serve.digest_raw_ms", delta * hops, get("serve.digest_raw_ms")},
		}
		fmt.Fprintf(&b, "  per delivered frame %32s %10s %10s %7s\n", "x/frame", "ms/call", "ms/frame", "share")
		sum := 0.0
		for _, r := range rows {
			if r.times == 0 || r.cost == 0 {
				continue
			}
			c := r.times * r.cost
			sum += c
			fmt.Fprintf(&b, "    %-36s %12.3f %10.3f %10.3f %6.1f%%\n", r.layer, r.times, r.cost, c, 100*c/cpu)
		}
		fmt.Fprintf(&b, "    %-36s %34.3f %6.1f%%\n", "replayed layers, summed", sum, 100*sum/cpu)
		fmt.Fprintf(&b, "    %-36s %34.3f %6.1f%%\n", "residual (HTTP, multipart, GC, runtime, harness)", cpu-sum, 100*(cpu-sum)/cpu)
		fmt.Fprintf(&b, "    %-36s %34.3f\n", "process CPU per frame served (traced)", cpu)
	}

	job := 0.0
	if len(m.latency) > 0 {
		var ds []float64
		for _, s := range m.latency {
			ds = append(ds, ms(s.Latency()))
		}
		job = stats.Quantile(ds, 0.5)
	}
	fmt.Fprintf(&b, "  per job (p50 of each, so the parts need not sum exactly)\n")
	fmt.Fprintf(&b, "    %-36s %10.3f ms\n", "client: submit → summary", job)
	fmt.Fprintf(&b, "    %-36s %10.3f ms\n", "  client + loopback outside handlers", get("client.net_ms_p50"))
	if d.cfg.W.Fleet {
		fmt.Fprintf(&b, "    %-36s %10.3f ms\n", "  fleet self (gateway minus workers)", get("fleet.self_ms_p50"))
	}
	fmt.Fprintf(&b, "    %-36s %10.3f ms\n", "  serve handler", get("serve.handler_ms_p50"))
	fmt.Fprintf(&b, "    %-36s %10.3f ms\n", "    of which before the first byte", get("serve.first_write_ms_p50"))
	return b.String()
}
