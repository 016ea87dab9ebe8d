// Command sccload is the render service's end-to-end benchmark: one
// process that stands up the system under test (serve.New, fleet.New,
// loopback TCP listeners), drives it with a seeded load generator,
// verifies every byte it receives, and prints every metric by name and
// unit.
//
//	sccload -workload NAME -seed S -seconds T -trace 0|1   one measurement
//	sccload -all                                           the four workloads, untraced then traced, one JSON document
//	sccload -aa N                                          N untraced sets; per-metric median, quartiles and spread
//	sccload -manifest                                      BENCHMARK.json, generated from the metric and workload tables
//
// A single measurement prints a readable report followed, as the last line
// of standard output, by one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with -trace 0, the
// per-layer metrics with -trace 1. It exits non-zero if anything it
// received failed verification.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sccpipe/bench"
	"sccpipe/bench/loadgen"
	"sccpipe/bench/probe"
	"sccpipe/bench/replay"
)

// result is the contract's last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seed of the job sequence and arrival schedule")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
		outDir   = flag.String("out", "bench/out", "directory for spans, budget tables and last-run records")
		all      = flag.Bool("all", false, "run every workload untraced and traced, each in a fresh process, and print one JSON document")
		aa       = flag.Int("aa", 0, "run this many untraced sets of every workload and print each metric's median, quartiles and spread")
		list     = flag.Bool("list", false, "print the workload table")
		manif    = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	switch {
	case *manif:
		b, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(b))
	case *list:
		for _, w := range bench.Workloads {
			fmt.Printf("%s\n    %s\n", w.Name, w.Why)
		}
	case *all:
		if err := runAll(ctx, *seed, *seconds, *outDir); err != nil {
			fatal(1, err)
		}
	case *aa > 0:
		if err := runAA(ctx, *aa, *seed, *seconds, *outDir); err != nil {
			fatal(1, err)
		}
	default:
		w, ok := bench.Lookup(*workload)
		if !ok {
			fatal(2, fmt.Errorf("unknown workload %q (see -list)", *workload))
		}
		if *seconds < 1 {
			fatal(2, fmt.Errorf("-seconds must be at least 1"))
		}
		cfg := runConfig{W: w, Seed: *seed, Window: time.Duration(*seconds * float64(time.Second)),
			Warmup: 2 * time.Second, SetupReps: 5, Trace: *trace != 0, FixedPorts: true}
		res, err := measureOnce(ctx, cfg, *outDir, os.Stdout)
		if err != nil {
			fatal(1, err)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "sccload:", err)
	os.Exit(code)
}

// lastRun is what an untraced run leaves behind for the next traced run of
// the same workload to compute the tracing overhead from.
type lastRun struct {
	Seconds    float64 `json:"seconds"`
	FramesPerS float64 `json:"frames_per_s"`
}

func lastRunPath(outDir, workload string) string {
	return filepath.Join(outDir, workload+".untraced.json")
}

// measureOnce runs one measurement, verifies it, writes the traced run's
// artefacts, prints the readable report to w and returns the contract
// result.
func measureOnce(ctx context.Context, cfg runConfig, outDir string, w *os.File) (*result, error) {
	fmt.Fprintf(w, "workload %s: %s\n", cfg.W.Name, cfg.W.Why)
	fmt.Fprintf(w, "seed %d, %v timed, traced=%t\n", cfg.Seed, cfg.Window, cfg.Trace)
	d, err := run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}

	bad := verify(d)
	for i, err := range bad {
		if i == 10 {
			fmt.Fprintf(w, "... and %d more verification failures\n", len(bad)-10)
			break
		}
		fmt.Fprintln(w, "VERIFICATION FAILED:", err)
	}

	res := &result{Correct: len(bad) == 0}
	var defs []metricDef
	if !cfg.Trace {
		var m measured
		res.Metrics, m = endToEnd(d)
		res.Attempted, res.Failed = m.attempted, m.failed
		defs = endToEndDefs
		rec, _ := json.Marshal(lastRun{cfg.Window.Seconds(), res.Metrics["frames_per_s"].Value})
		if err := os.WriteFile(lastRunPath(outDir, cfg.W.Name), rec, 0o644); err != nil {
			return nil, err
		}
	} else {
		costs, err := replay.Run(ctx, cfg.W)
		if err != nil {
			return nil, err
		}
		var last lastRun
		if raw, err := os.ReadFile(lastRunPath(outDir, cfg.W.Name)); err == nil {
			if json.Unmarshal(raw, &last) != nil || last.Seconds != cfg.Window.Seconds() {
				last = lastRun{}
			}
		}
		spans := allSpans(d)
		var m measured
		res.Metrics, m, err = perLayer(d, costs, spans, last.FramesPerS)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = m.attempted, m.failed
		defs = perLayerDefs
		if err := writeTraceArtefacts(outDir, d, spans, res.Metrics, m, w); err != nil {
			return nil, err
		}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation completed inside the timed window")
	}

	// The contract's line carries every registered metric: one that does
	// not apply to this workload (fleet.* without a gateway, pixel replays
	// on sim_batch) reads 0 there and is left out of the report above it.
	full := metrics{}
	for _, def := range defs {
		v, ok := res.Metrics[def.Name]
		if ok && v.Unit != def.Unit {
			return nil, fmt.Errorf("metric %s has unit %q, registered as %q", def.Name, v.Unit, def.Unit)
		}
		if ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", def.Name, v.Value, v.Unit)
		}
		full.set(def.Name, v.Value, def.Unit)
	}
	for name := range res.Metrics {
		if _, ok := full[name]; !ok {
			return nil, fmt.Errorf("metric %s is computed but not registered", name)
		}
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %t\n", res.Attempted, res.Failed, res.Correct)
	res.Metrics = full
	return res, nil
}

// verify collects everything that came back wrong: the client checked
// every part as it arrived, and the oracle now recomputes the first job of
// each spec.
func verify(d *runData) []error {
	var bad []error
	for _, s := range d.samples {
		if verificationFailure(s) {
			bad = append(bad, fmt.Errorf("job %d (%s): %w", s.Job.Index, s.Job.Spec.Key(), s.Err))
		}
	}
	return append(bad, verifyAgainstOracle(d)...)
}

// verificationFailure reports whether a sample failed because what came
// back was wrong — as opposed to being refused at admission, dropped at
// the in-flight cap, or cut off when the run ended.
func verificationFailure(s loadgen.Sample) bool {
	return s.Err != nil && !s.Overflow && !s.Rejected() &&
		!errors.Is(s.Err, context.DeadlineExceeded) && !errors.Is(s.Err, context.Canceled)
}

// writeTraceArtefacts writes the traced run's spans and budget table.
func writeTraceArtefacts(outDir string, d *runData, spans []probe.Span, pl metrics, m measured, w *os.File) error {
	f, err := os.Create(filepath.Join(outDir, d.cfg.W.Name+".spans.csv"))
	if err != nil {
		return err
	}
	if err := probe.WriteCSV(f, spans, d.t0); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := budgetTable(d, pl, m)
	fmt.Fprint(w, table)
	return os.WriteFile(filepath.Join(outDir, d.cfg.W.Name+".budget.txt"), []byte(table), 0o644)
}
