package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"sccpipe/bench/client"
	"sccpipe/bench/loadgen"
	"sccpipe/internal/core"
	"sccpipe/internal/frame"
	"sccpipe/internal/render"
	"sccpipe/internal/scene"
	"sccpipe/internal/serve"
)

// oracle recomputes jobs without the service: core.ExecReference for
// pixels, a direct core.Simulate for simulated seconds. It builds its own
// scene and octree from the same public constructors the server uses.
type oracle struct {
	tree *render.Octree
	mu   sync.Mutex
	wls  map[[3]int]*core.Workload
}

func newOracle() *oracle {
	return &oracle{
		tree: render.BuildOctree(scene.City(scene.DefaultConfig())),
		wls:  make(map[[3]int]*core.Workload),
	}
}

func rendererOf(name string) (core.RendererConfig, error) {
	switch name {
	case "one":
		return core.OneRenderer, nil
	case "n":
		return core.NRenderers, nil
	case "host":
		return core.HostRenderer, nil
	}
	return 0, fmt.Errorf("oracle: unknown renderer %q", name)
}

// checkPixels compares the pixel sums a job's stream decoded to with the
// reference run of the same spec and seed, frame by frame.
func (o *oracle) checkPixels(res *client.Result) error {
	j := res.Job.Spec.Job
	rc, err := rendererOf(j.Renderer)
	if err != nil {
		return err
	}
	cams := render.Walkthrough(j.Frames, o.tree.Bounds())
	if j.Camera == serve.CameraDwell {
		cams = render.DwellWalkthrough(j.Frames, o.tree.Bounds())
	}
	spec := core.ExecSpec{Frames: j.Frames, Width: j.Width, Height: j.Height,
		Pipelines: j.Pipelines, Renderer: rc, Seed: j.Seed}
	if len(res.PixelSums) != j.Frames {
		return fmt.Errorf("%s: %d pixel sums kept for %d frames", res.Job.Spec.Key(), len(res.PixelSums), j.Frames)
	}
	var mismatch error
	err = core.ExecReference(spec, o.tree, cams, func(f int, img *frame.Image) {
		if mismatch == nil && sha256.Sum256(img.Pix) != res.PixelSums[f] {
			mismatch = fmt.Errorf("%s seed %d: frame %d differs from core.ExecReference", res.Job.Spec.Key(), j.Seed, f)
		}
	})
	if err != nil {
		return err
	}
	return mismatch
}

// checkSim compares a simulate job's seconds with a direct core.Simulate.
func (o *oracle) checkSim(res *client.Result) error {
	j := res.Job.Spec.Job
	rc, err := rendererOf(j.Renderer)
	if err != nil {
		return err
	}
	var arr core.Arrangement
	for _, a := range core.Arrangements {
		if a.String() == j.Arrangement {
			arr = a
		}
	}
	key := [3]int{j.Frames, j.Width, j.Height}
	o.mu.Lock()
	wl := o.wls[key]
	if wl == nil {
		wl = core.BuildWorkload(o.tree, j.Frames, j.Width, j.Height)
		o.wls[key] = wl
	}
	o.mu.Unlock()
	want, err := core.Simulate(core.Spec{Frames: j.Frames, Width: j.Width, Height: j.Height,
		Pipelines: j.Pipelines, Arrangement: arr, Renderer: rc}, wl, core.SimOptions{})
	if err != nil {
		return err
	}
	if want.Seconds != res.SimSeconds {
		return fmt.Errorf("%s: service says %v simulated seconds, core.Simulate says %v",
			res.Job.Spec.Key(), res.SimSeconds, want.Seconds)
	}
	return nil
}

// simOracleSample is how many distinct simulate specs a run checks against
// a direct core.Simulate. Checking all 63 would cost a sixth of the timed
// window again; every repeat of every spec is still checked for agreeing
// with the first, and the seeded sample moves with the seed.
const simOracleSample = 9

// verifyAgainstOracle runs the reference checks for the first job of each
// distinct spec (a seeded sample of them for simulate jobs) on both cores,
// and checks that repeated simulate specs answered identically. It returns
// one error per failed check.
func verifyAgainstOracle(d *runData) []error {
	var errs []error
	firsts := append([]*client.Result(nil), d.firsts...)
	sort.Slice(firsts, func(a, b int) bool { return firsts[a].Job.Index < firsts[b].Job.Index })

	var sims, renders []*client.Result
	for _, r := range firsts {
		if r.Job.Spec.Job.Mode == serve.ModeSimulate {
			sims = append(sims, r)
		} else {
			renders = append(renders, r)
		}
	}
	if len(sims) > simOracleSample {
		rng := rand.New(rand.NewSource(d.cfg.Seed))
		rng.Shuffle(len(sims), func(a, b int) { sims[a], sims[b] = sims[b], sims[a] })
		sims = sims[:simOracleSample]
	}
	errs = append(errs, simRepeatsAgree(d.samples)...)

	o := newOracle()
	work := make(chan func() error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fn := range work {
				if err := fn(); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, r := range renders {
		work <- func() error { return o.checkPixels(r) }
	}
	for _, r := range sims {
		work <- func() error { return o.checkSim(r) }
	}
	close(work)
	wg.Wait()
	return errs
}

// simRepeatsAgree checks that every completed simulate job of one spec
// returned the same body: the model is deterministic.
func simRepeatsAgree(samples []loadgen.Sample) []error {
	var errs []error
	first := make(map[string]string)
	for _, s := range samples {
		if !s.OK() || s.Job.Spec.Job.Mode != serve.ModeSimulate {
			continue
		}
		key := s.Job.Spec.Key()
		if want, ok := first[key]; !ok {
			first[key] = s.SimBody
		} else if want != s.SimBody {
			errs = append(errs, fmt.Errorf("%s: simulate replies differ between repeats: %s vs %s", key, want, s.SimBody))
		}
	}
	return errs
}
