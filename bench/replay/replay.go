// Package replay prices each layer of the render service in isolation: it
// calls the layer's public functions, on one goroutine, on inputs of the
// workload's own geometry, and reports the median time of a call. The
// traced run sums these costs against the measured CPU per frame to see
// whether the budget closes — which layers explain the end-to-end number
// and how much of it nothing explains.
//
// Costs named *_ms that concern pixels are per frame's worth of work: a
// filter runs once per strip in the pipeline, so its replay runs it over
// all k strips of a frame.
package replay

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sccpipe/bench"
	"sccpipe/internal/band"
	"sccpipe/internal/codec"
	"sccpipe/internal/core"
	"sccpipe/internal/des"
	"sccpipe/internal/filters"
	"sccpipe/internal/frame"
	"sccpipe/internal/pipe"
	"sccpipe/internal/plan"
	"sccpipe/internal/rcache"
	"sccpipe/internal/render"
	"sccpipe/internal/scene"
	"sccpipe/internal/serve"
)

// Value is one replayed number.
type Value struct {
	V    float64
	Unit string
}

// Costs maps metric names to replayed values.
type Costs map[string]Value

// A call is replayed at least minCalls times and until either maxCalls
// calls or callBudget of measured time have been spent; the median is
// reported. Cheap calls therefore get the full 50 samples, and a 240 ms
// simulation gets the minimum instead of holding the run for 12 s.
const (
	minCalls   = 5
	maxCalls   = 50
	callBudget = 120 * time.Millisecond
)

// median times fn (after an untimed prep, if any) and returns the median
// duration of a call.
func median(prep, fn func()) time.Duration {
	var ds []time.Duration
	var spent time.Duration
	for len(ds) < minCalls || (len(ds) < maxCalls && spent < callBudget) {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		ds = append(ds, d)
		spent += d
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2]
}

func (c Costs) ms(name string, d time.Duration) {
	c[name] = Value{float64(d) / float64(time.Millisecond), "ms"}
}

func (c Costs) us(name string, d time.Duration) {
	c[name] = Value{float64(d) / float64(time.Microsecond), "us"}
}

// shape is the geometry replays run at: the workload's first spec.
type shape struct {
	frames, w, h, k int
	camera          string
}

// Run replays the layers on w's path and returns their costs. Groups of
// replays that touch no code on the workload's path are skipped and their
// metrics left out.
func Run(ctx context.Context, w bench.Workload) (Costs, error) {
	j := w.Specs[0].Job
	sh := shape{frames: j.Frames, w: j.Width, h: j.Height, k: j.Pipelines, camera: j.Camera}
	c := Costs{}

	// Set-up costs: what standing a server up (and, for simulate jobs and
	// the profile planner, its first use) pays once.
	var tris []render.Triangle
	c.ms("scene.city_ms", median(nil, func() { tris = scene.City(scene.DefaultConfig()) }))
	var tree *render.Octree
	c.ms("render.octree_build_ms", median(nil, func() { tree = render.BuildOctree(tris) }))
	var wl *core.Workload
	c.ms("core.build_workload_ms", median(nil, func() { wl = core.BuildWorkload(tree, sh.frames, sh.w, sh.h) }))
	var prof plan.Profile
	c.ms("plan.model_profile_ms", median(nil, func() { prof = plan.ModelProfile(core.DefaultCostModel(), wl) }))
	var planErr error
	c.ms("plan.compute_ms", median(nil, func() {
		_, planErr = plan.Compute(prof, plan.Config{Renderer: core.OneRenderer, Height: sh.h})
	}))
	if planErr != nil {
		return nil, fmt.Errorf("replay: plan.Compute: %w", planErr)
	}

	if w.Replays.Pixels {
		if err := replayPixels(ctx, c, sh, tree, w.Replays); err != nil {
			return nil, err
		}
	}
	if w.Replays.Sim {
		if err := replaySim(c, tree); err != nil {
			return nil, err
		}
	}
	return c, ctx.Err()
}

// replayPixels prices the pixel path: rasterizer, cache, filters, frame
// plumbing, stream codecs and the pipeline runtime around them.
func replayPixels(ctx context.Context, c Costs, sh shape, tree *render.Octree, groups bench.Replays) error {
	cams := render.Walkthrough(sh.frames, tree.Bounds())
	if sh.camera == serve.CameraDwell {
		cams = render.DwellWalkthrough(sh.frames, tree.Bounds())
	}
	// Kernels are replayed serially, so a replayed millisecond is a CPU
	// millisecond and the costs can be summed against CPU per frame. Under
	// load both cores are busy with two jobs' stages and band parallelism
	// buys little; what a kernel costs is its serial time either way.
	bands := band.Serial

	// render: one full frame (the "one" renderer scenario the workloads
	// use), and the frame drawn as k strips (what k renderers would do).
	r := render.NewRenderer(tree)
	r.Bands = bands
	img := frame.New(sh.w, sh.h)
	f := 0
	c.ms("render.frame_ms", median(nil, func() {
		r.RenderFrame(cams[f%len(cams)], img)
		f++
	}))
	// The binning counter only moves on the tiled path the service's
	// parallel band pool selects; count it there, untimed.
	tiled := render.NewRenderer(tree)
	tiled.Bands, tiled.Mode = band.Default(), render.RasterTiled
	var binned int64
	for _, cam := range cams {
		binned += tiled.RenderFrame(cam, img).TrisBinned
	}
	c["render.tris_binned_per_frame"] = Value{float64(binned) / float64(len(cams)), "count"}
	strips, err := frame.SplitRowsView(img, sh.k)
	if err != nil {
		return err
	}
	f = 0
	c.ms("render.strip_ms", median(nil, func() {
		for _, s := range strips {
			r.RenderStrip(cams[f%len(cams)], s.Img, sh.w, sh.h, s.Y0)
		}
		f++
	}))

	// rcache: a hit is a lookup plus a frame copy; a miss's overhead is
	// everything Do adds around the render callback (clone, insert, and
	// with a 32 MiB budget the eviction that makes room).
	r.RenderFrame(cams[0], img)
	rendered := img.Clone()
	cache := rcache.New(32 << 20)
	noRender := func(*frame.Image) error { return nil }
	hot := rcache.FrameKey(1, cams[0], sh.w, sh.h, 0, 0, sh.h)
	if _, err := cache.Do(hot, img, noRender); err != nil {
		return err
	}
	c.ms("rcache.hit_ms", median(nil, func() { _, _ = cache.Do(hot, img, noRender) }))
	miss := 0
	c.ms("rcache.miss_overhead_ms", median(nil, func() {
		miss++
		_, _ = cache.Do(rcache.FrameKey(1, cams[0], sh.w, sh.h, miss, 0, sh.h), img, noRender)
	}))

	// filters: each stage over the k strip views of one frame, fed what
	// the stage before it produced.
	restore := func(src *frame.Image) func() { return func() { copy(img.Pix, src.Pix) } }
	rng := rand.New(rand.NewSource(1))
	var fz filters.Fused
	sepia := func() {
		for _, s := range strips {
			filters.Sepia(s.Img)
		}
	}
	blur := func() {
		for _, s := range strips {
			filters.BlurBands(s.Img, bands)
		}
	}
	tail := func() {
		for _, s := range strips {
			fz.Reset()
			fz.AddScratch(filters.DrawScratchParams(rng, s.Img.W))
			fz.AddFlicker(filters.DrawFlickerDelta(rng))
			fz.AddSwap()
			fz.ApplyBands(s.Img, bands)
		}
	}
	c.ms("filters.sepia_ms", median(restore(rendered), sepia))
	afterSepia := img.Clone()
	c.ms("filters.blur_ms", median(restore(afterSepia), blur))
	afterBlur := img.Clone()
	c.ms("filters.tail_fused_ms", median(restore(afterBlur), tail))
	c.ms("filters.chain_ms", median(restore(rendered), func() { sepia(); blur(); tail() }))
	filtered := img.Clone()

	// frame and band plumbing.
	dst := frame.New(sh.w, sh.h)
	c.ms("frame.split_assemble_ms", median(nil, func() {
		views, _ := frame.SplitRowsView(filtered, sh.k)
		frame.AssembleInto(dst, views)
	}))
	pool := frame.NewPool()
	c.us("frame.pool_get_put_us", median(nil, func() { pool.Put(pool.Get(sh.w, sh.h)) }))
	c.us("band.run_overhead_us", median(nil, func() { band.Default().Run(2, func(int) {}) }))

	// The pipeline runtime: a no-op five-stage chain prices the hand-offs,
	// and the real pipeline on the workload's spec gives the per-frame cost
	// and the fill time that sets time-to-first-frame.
	const items = 200
	chain := noopChain(items)
	var runErr error
	perRun := median(nil, func() { _, runErr = chain.RunContext(ctx, sh.k) })
	if runErr != nil {
		return fmt.Errorf("replay: pipe.Chain.Run: %w", runErr)
	}
	c.us("pipe.run_overhead_us_per_item", perRun/time.Duration(items*sh.k))

	spec := core.ExecSpec{Frames: sh.frames, Width: sh.w, Height: sh.h, Pipelines: sh.k,
		Renderer: core.OneRenderer, Seed: 1, Pool: pool}
	var firstFrame []time.Duration
	perExec := median(nil, func() {
		t0 := time.Now()
		_, runErr = core.ExecContext(ctx, spec, tree, cams, func(f int, _ *frame.Image) {
			if f == 0 {
				firstFrame = append(firstFrame, time.Since(t0))
			}
		})
	})
	if runErr != nil {
		return fmt.Errorf("replay: core.ExecContext: %w", runErr)
	}
	sort.Slice(firstFrame, func(a, b int) bool { return firstFrame[a] < firstFrame[b] })
	c.ms("core.exec_ms_per_frame", perExec/time.Duration(sh.frames))
	c.ms("core.exec_first_frame_ms", firstFrame[len(firstFrame)/2])

	var pngBuf bytes.Buffer
	if groups.PNG {
		c.ms("frame.png_encode_ms", median(pngBuf.Reset, func() { _ = filtered.WritePNG(&pngBuf) }))
		png := append([]byte(nil), pngBuf.Bytes()...)
		var decErr error
		c.ms("frame.png_decode_ms", median(nil, func() { _, decErr = frame.ReadPNG(bytes.NewReader(png)) }))
		if decErr != nil {
			return fmt.Errorf("replay: frame.ReadPNG: %w", decErr)
		}
		c.ms("serve.digest_png_ms", median(nil, func() { serve.FrameDigest(png) }))
	}
	if groups.Delta {
		return replayDelta(c, sh, tree, spec)
	}
	return nil
}

// noopChain is a five-stage chain of identity stages feeding items items
// per pipeline: run for real it prices the hand-offs, simulated (1 ms of
// reference compute and 64 KiB per item) it prices the chain simulator.
func noopChain(items int) *pipe.Chain {
	chain := &pipe.Chain{
		Feed:      func(_, seq int) (pipe.Item, bool) { return pipe.Item{Seq: seq}, seq < items },
		ItemBytes: 64 << 10,
	}
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		chain.Stages = append(chain.Stages, pipe.Stage{Name: name,
			Fn:      func(it pipe.Item) pipe.Item { return it },
			CostRef: func(pipe.Item) float64 { return 1e-3 }})
	}
	return chain
}

// replayDelta prices the delta stream codec on two frame pairs of a dwell
// walkthrough: a held pose (only the seeded filters animate — the regime
// delta coding is for) and a pose change (every pixel moves).
func replayDelta(c Costs, sh shape, tree *render.Octree, spec core.ExecSpec) error {
	// Three poses: a two-pose walkthrough starts and ends at the same point.
	spec.Frames = 3 * render.DwellHold
	cams := render.DwellWalkthrough(spec.Frames, tree.Bounds())
	frames := make([][]byte, spec.Frames)
	if _, err := core.Exec(spec, tree, cams, func(f int, img *frame.Image) {
		frames[f] = append([]byte(nil), img.Pix...)
	}); err != nil {
		return fmt.Errorf("replay: core.Exec: %w", err)
	}
	last := render.DwellHold - 1 // last frame of the first pose
	pairs := []struct {
		name      string
		prev, cur []byte
	}{
		{"hold", frames[last-1], frames[last]},
		{"motion", frames[last], frames[last+1]},
	}
	var holdPayload []byte
	for _, p := range pairs {
		var payload []byte
		var err error
		c.ms("codec.delta_encode_"+p.name+"_ms", median(nil, func() {
			payload, err = codec.FrameDeltaEncode(p.prev, p.cur, sh.w, sh.h)
		}))
		if err != nil {
			return fmt.Errorf("replay: codec.FrameDeltaEncode: %w", err)
		}
		var png bytes.Buffer
		cur := frame.Image{W: sh.w, H: sh.h, Pix: p.cur}
		if err := cur.WritePNG(&png); err != nil {
			return err
		}
		c["codec.delta_ratio_"+p.name] = Value{float64(len(payload)) / float64(png.Len()), "ratio"}
		if p.name == "hold" {
			holdPayload = payload
		}
	}
	var decErr error
	c.ms("codec.delta_decode_ms", median(nil, func() {
		_, decErr = codec.FrameDeltaDecode(pairs[0].prev, holdPayload, sh.w, sh.h)
	}))
	if decErr != nil {
		return fmt.Errorf("replay: codec.FrameDeltaDecode: %w", decErr)
	}
	c.ms("serve.digest_raw_ms", median(nil, func() { serve.FrameDigest(pairs[0].cur) }))
	return nil
}

// replaySim prices the simulation path: the paper's walkthrough at k = 7
// on the modeled SCC, the event engine underneath it, and the generic
// chain simulator.
func replaySim(c Costs, tree *render.Octree) error {
	spec := core.DefaultSpec()
	spec.Pipelines = 7
	spec.Renderer = core.NRenderers
	wl := core.BuildWorkload(tree, spec.Frames, spec.Width, spec.Height)
	var err error
	c.ms("core.simulate_ms", median(nil, func() { _, err = core.Simulate(spec, wl, core.SimOptions{}) }))
	if err != nil {
		return fmt.Errorf("replay: core.Simulate: %w", err)
	}

	// des: procs × waits timed events through a bare engine.
	const procs, waits = 48, 500
	perEngine := median(nil, func() {
		eng := des.NewEngine()
		for p := 0; p < procs; p++ {
			step := 1 + float64(p)/procs
			eng.Spawn("p", func(pr *des.Proc) {
				for i := 0; i < waits; i++ {
					pr.Wait(step)
				}
			})
		}
		eng.Run()
		err = eng.Err()
	})
	if err != nil {
		return fmt.Errorf("replay: des.Engine: %w", err)
	}
	c["des.events_per_s"] = Value{procs * waits / perEngine.Seconds(), "1/s"}

	chain := noopChain(100)
	c.ms("pipe.simulate_ms", median(nil, func() { _, err = chain.Simulate(pipe.SimSpec{Pipelines: 4, Items: 100}) }))
	if err != nil {
		return fmt.Errorf("replay: pipe.Chain.Simulate: %w", err)
	}
	return nil
}
