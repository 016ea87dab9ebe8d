// Package bench holds the render-service benchmark's workload table and
// the seeded generator that turns a workload and a seed into the exact
// job sequence (closed loops) or arrival schedule (open loop) the system
// under test receives. Everything a run sends is derived from this file
// and the -seed flag; the program under test never sees the seed itself.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"sccpipe/internal/core"
	"sccpipe/internal/serve"
)

// Spec is one job shape: the JSON body minus the per-job seed, plus the
// stream encoding negotiated by header.
type Spec struct {
	Job   serve.JobSpec
	Delta bool
}

// Key identifies a spec for the verifier's "first job of each distinct
// spec" bookkeeping.
func (s Spec) Key() string {
	j := s.Job
	return fmt.Sprintf("%s|%s|%d|%dx%d|k%d|%s|%s|delta=%t",
		j.Mode, j.Camera, j.Frames, j.Width, j.Height, j.Pipelines, j.Renderer, j.Arrangement, s.Delta)
}

// Job is one generated request: a spec with its unique seed filled in.
// Index is the job's position in the generated sequence; the seed doubles
// as the job's identity in the traced run's spans.
type Job struct {
	Index int
	Spec  Spec
}

// Seed is the job's unique identity (the JobSpec seed).
func (j Job) Seed() int64 { return j.Spec.Job.Seed }

// Arrival is one open-loop request: the job and the offset from the start
// of the timed window at which it is due, in the step it belongs to.
type Arrival struct {
	Due  time.Duration
	Step int
	Job  Job
}

// Replays names which groups of per-layer replays touch code on a
// workload's path; the traced run skips the others and reports them as
// not applicable.
type Replays struct {
	Pixels bool // render, rcache, filters, frame, band, pipe.Run, core.Exec
	PNG    bool // frame PNG encode/decode and the PNG digest
	Delta  bool // codec delta encode/decode and the raw digest
	Sim    bool // core.Simulate, des, pipe.Simulate
}

// Workload is one row of the benchmark's workload table.
type Workload struct {
	Name string
	// Why records the reason the workload exists; it is printed with the
	// results and registered in BENCHMARK.json.
	Why string
	// Open selects the open-loop scheduler (arrivals on a schedule, timed
	// from their due time); otherwise Clients closed-loop connections each
	// send their next job when the previous one completed. The open loop
	// uses Clients connections for its set-up jobs and warm-up only.
	Open    bool
	Clients int
	// Fleet puts a gateway and two workers in front of the clients;
	// otherwise the clients talk to one worker directly. Worker is the
	// configuration of each worker.
	Fleet  bool
	Worker serve.Config
	// Specs is the spec population: cycled in order by the closed loops,
	// drawn with Zipf(ZipfS) frequencies by the open loop.
	Specs []Spec
	// Warm lists the specs the open loop warms connections and pools with;
	// they are outside Specs so the population's cache entries start cold.
	// Closed loops warm up on their own job sequence.
	Warm []Spec
	// WarmCache makes the warm-up continue until a whole job is served
	// from the render cache.
	WarmCache bool

	// Open-loop shape: three constant-rate steps (jobs/s), the share of
	// the timed window each takes, the latency limit a job must meet
	// measured from its due time, and the in-flight cap beyond which an
	// arrival is counted as failed without being sent.
	Rates       [3]float64
	StepShare   [3]float64
	Limit       time.Duration
	InflightCap int
	ZipfS       float64

	Replays Replays
}

// renderSpec builds one render job spec.
func renderSpec(camera string, frames, w, h int, delta bool) Spec {
	return Spec{Delta: delta, Job: serve.JobSpec{
		Mode: serve.ModeRender, Camera: camera, Frames: frames,
		Width: w, Height: h, Pipelines: 4, Renderer: "one", Arrangement: "unordered",
	}}
}

// coldSpecs is the cyclic working set of cold_raw_direct: 24 orbit specs
// of distinct widths, 16 frames each, ≈115 MB of rendered frames against
// a 32 MiB cache, so LRU eviction guarantees every frame misses.
func coldSpecs() []Spec {
	specs := make([]Spec, 24)
	for i := range specs {
		specs[i] = renderSpec(serve.CameraOrbit, 16, 296+2*i, 240, false)
	}
	return specs
}

// mixedSpecs is the population of open_mixed_fleet: 48 eight-frame specs
// of distinct widths, alternating dwell+delta and orbit+raw.
func mixedSpecs() []Spec {
	specs := make([]Spec, 48)
	for i := range specs {
		if i%2 == 0 {
			specs[i] = renderSpec(serve.CameraDwell, 8, 272+2*i, 240, true)
		} else {
			specs[i] = renderSpec(serve.CameraOrbit, 8, 272+2*i, 240, false)
		}
	}
	return specs
}

// simSpecs is the paper's walkthrough (400 frames at 512×512) over every
// pipeline count, renderer scenario and mesh arrangement the SCC admits.
func simSpecs() []Spec {
	renderers := []struct {
		name string
		rc   core.RendererConfig
	}{{"one", core.OneRenderer}, {"n", core.NRenderers}, {"host", core.HostRenderer}}
	var specs []Spec
	for k := 1; k <= 7; k++ {
		for _, r := range renderers {
			for _, arr := range core.Arrangements {
				specs = append(specs, Spec{Job: serve.JobSpec{
					Mode: serve.ModeSimulate, Frames: 400, Width: 512, Height: 512,
					Pipelines: min(k, core.MaxPipelines(r.rc)), Renderer: r.name,
					Camera: serve.CameraOrbit, Arrangement: arr.String(),
				}})
			}
		}
	}
	return specs
}

// Open-loop rates of open_mixed_fleet, in jobs/s. They were calibrated
// once on the 2-core reference box (see bench/README.md, "Calibrating the
// open-loop rates") at about 0.35×, 0.65× and 1.25× the closed-loop
// capacity of the same mix (27 jobs/s), and are frozen here so that every
// later run offers the same load.
const (
	OpenRate1 = 9
	OpenRate2 = 18
	OpenRate3 = 34
)

// Workloads is the benchmark's workload table. The names are fixed:
// BENCHMARK.json and later issues refer to them.
var Workloads = []Workload{
	{
		Name: "cold_raw_direct",
		Why: "cyclic working set 3.6x the 32 MiB cache: every frame misses, so render, filters, " +
			"PNG encode and serve streaming do the work while codec, fleet and the cache hit path do nothing",
		Clients: 2,
		Worker:  serve.Config{Workers: 2, CacheBytes: 32 << 20},
		Specs:   coldSpecs(),
		Replays: Replays{Pixels: true, PNG: true},
	},
	{
		Name: "warm_delta_fleet",
		Why: "one dwell spec served from the render cache as a delta stream through the gateway: " +
			"filters, delta encode, relay decode+verify and affinity routing carry the run; the renderer is skipped",
		Clients:   2,
		Fleet:     true,
		Specs:     []Spec{renderSpec(serve.CameraDwell, 18, 320, 240, true)},
		WarmCache: true,
		Replays:   Replays{Pixels: true, Delta: true},
	},
	{
		Name: "open_mixed_fleet",
		Why: "open-loop arrivals at three fixed rates over 48 Zipf-weighted specs: the only workload " +
			"where admission, queueing, routing under contention and first-touch cache misses interact",
		Open:    true,
		Clients: 2,
		Fleet:   true,
		Specs:   mixedSpecs(),
		Warm: []Spec{
			renderSpec(serve.CameraDwell, 8, 268, 240, true),
			renderSpec(serve.CameraOrbit, 8, 270, 240, false),
		},
		Rates:       [3]float64{OpenRate1, OpenRate2, OpenRate3},
		StepShare:   [3]float64{0.20, 0.56, 0.24},
		Limit:       400 * time.Millisecond,
		InflightCap: 64,
		ZipfS:       1.1,
		Replays:     Replays{Pixels: true, PNG: true, Delta: true},
	},
	{
		Name: "sim_batch",
		Why: "simulate-mode jobs of the paper's 400-frame walkthrough: core.Simulate, des, scc, rcce " +
			"and pipe do all the work and no pixel, codec or cache code runs",
		Clients: 2,
		Worker:  serve.Config{Workers: 2},
		Specs:   simSpecs(),
		Replays: Replays{Sim: true},
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// seedBase spreads run seeds apart so job seeds of different runs do not
// overlap; job i of a run gets seedBase(seed)+i+1, unique within the run.
func seedBase(seed int64) int64 {
	return rand.New(rand.NewSource(seed)).Int63() >> 20 << 20
}

// Job returns job i of the workload's closed-loop (and warm-up) sequence
// under the run seed: the specs cycled in order, each job with a fresh
// seed.
func (w Workload) Job(seed int64, i int) Job {
	return w.jobOf(seedBase(seed), i, w.Specs[i%len(w.Specs)])
}

// WarmJob returns job i of the open loop's warm-up sequence. Its seeds
// are negative so they can never collide with the schedule's.
func (w Workload) WarmJob(seed int64, i int) Job {
	j := w.jobOf(0, i, w.Warm[i%len(w.Warm)])
	j.Spec.Job.Seed = -(seedBase(seed) + int64(i) + 1)
	return j
}

func (w Workload) jobOf(base int64, i int, s Spec) Job {
	s.Job.Seed = base + int64(i) + 1
	return Job{Index: i, Spec: s}
}

// StepWindows splits a timed window into the workload's three steps and
// returns their start offsets plus the window's end.
func (w Workload) StepWindows(window time.Duration) [4]time.Duration {
	var edges [4]time.Duration
	acc := 0.0
	for i, share := range w.StepShare {
		acc += share
		edges[i+1] = time.Duration(acc * float64(window))
	}
	edges[3] = window
	return edges
}

// zipfCounts apportions n jobs over the spec population in proportion to
// Zipf(s) weights (rank i+1 has weight 1/(i+1)^s) by largest remainder,
// so the job mix of a step is the same for every seed and only its order
// and timing vary.
func zipfCounts(n, specs int, s float64) []int {
	weights := make([]float64, specs)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	counts := make([]int, specs)
	type frac struct {
		i int
		f float64
	}
	rem := make([]frac, specs)
	assigned := 0
	for i, wt := range weights {
		exact := float64(n) * wt / total
		counts[i] = int(exact)
		assigned += counts[i]
		rem[i] = frac{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rem, func(a, b int) bool { return rem[a].f > rem[b].f })
	for k := 0; assigned < n; k++ {
		counts[rem[k%specs].i]++
		assigned++
	}
	return counts
}

// Schedule generates the open loop's arrival schedule for a timed window:
// per step, round(rate×duration) arrivals, one in each of as many equal
// slots at a seeded uniform offset inside its slot, carrying a seeded
// shuffle of the step's Zipf-apportioned job mix.
//
// The slots are a deliberate departure from a Poisson process. Poisson
// arrivals (even conditioned on the count) cluster, a cluster pushes this
// service into a slow-to-drain overload, and whether a 14 s step contains
// such an episode depends on the seed: over eight runs job_ms_p95 at the
// middle rate read 170 to 540 ms and the share of jobs inside the limit
// 0.86 to 1.0. A gate cannot be built on that. Jittered slots keep
// what makes the loop open — jobs are sent on schedule whether or not
// earlier ones finished, and are timed from their due time — and bound
// the clustering, so the same code reads the same within a few percent.
func (w Workload) Schedule(seed int64, window time.Duration) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	base := seedBase(seed)
	edges := w.StepWindows(window)
	var out []Arrival
	for step := 0; step < 3; step++ {
		lo, hi := edges[step], edges[step+1]
		n := int(math.Round(w.Rates[step] * (hi - lo).Seconds()))
		var mix []int
		for spec, c := range zipfCounts(n, len(w.Specs), w.ZipfS) {
			for ; c > 0; c-- {
				mix = append(mix, spec)
			}
		}
		rng.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
		slot := float64(hi-lo) / float64(n)
		for i, spec := range mix {
			due := lo + time.Duration((float64(i)+rng.Float64())*slot)
			out = append(out, Arrival{Due: due, Step: step, Job: w.jobOf(base, len(out), w.Specs[spec])})
		}
	}
	return out
}
