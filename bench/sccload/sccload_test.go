package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sccpipe/bench"
	"sccpipe/bench/probe"
	"sccpipe/bench/replay"
)

// TestSmoke runs every workload for one second, traced, and checks the
// shape of what comes out: every end-to-end metric present, finite and in
// its registered unit; every per-layer metric the run produces registered
// under that unit, and every registered one produced by some workload; no
// failed operation; nothing failing verification.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the whole service four times")
	}
	producedPerLayer := map[string]bool{}
	for _, w := range bench.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{W: w, Seed: 5, Window: time.Second, Warmup: 200 * time.Millisecond,
				SetupReps: 1, Trace: true}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			d, err := run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, err := range verify(d) {
				t.Error("verification:", err)
			}
			if len(d.firsts) == 0 {
				t.Error("no job was kept for the reference check")
			}

			e2e, m := endToEnd(d)
			checkMetrics(t, e2e, endToEndDefs, true)
			if m.attempted < 1 {
				t.Fatal("nothing attempted inside the window")
			}
			if m.failed != 0 {
				t.Errorf("%d of %d operations failed", m.failed, m.attempted)
			}

			costs, err := replay.Run(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			spans := allSpans(d)
			pl, _, err := perLayer(d, costs, spans, e2e["frames_per_s"].Value)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, pl, perLayerDefs, false)
			for name := range pl {
				producedPerLayer[name] = true
			}
			if pl["fail_ratio"].Value != 0 {
				t.Errorf("fail_ratio %v", pl["fail_ratio"].Value)
			}
			if _, ok := pl["fleet.jobs_accepted"]; ok != w.Fleet {
				t.Errorf("fleet.* present = %t on a workload with Fleet = %t", ok, w.Fleet)
			}
			if table := budgetTable(d, pl, m); !strings.Contains(table, "serve handler") {
				t.Errorf("budget table lacks the job chain:\n%s", table)
			}
		})
	}
	for _, def := range perLayerDefs {
		if !producedPerLayer[def.Name] {
			t.Errorf("per-layer metric %s is registered but no workload produced it", def.Name)
		}
	}
}

func checkMetrics(t *testing.T, got metrics, defs []metricDef, all bool) {
	t.Helper()
	units := map[string]string{}
	for _, def := range defs {
		units[def.Name] = def.Unit
		if _, ok := got[def.Name]; all && !ok {
			t.Errorf("metric %s missing", def.Name)
		}
	}
	for name, v := range got {
		unit, ok := units[name]
		switch {
		case !ok:
			t.Errorf("metric %s is not registered", name)
		case v.Unit != unit:
			t.Errorf("metric %s has unit %q, registered as %q", name, v.Unit, unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s is %v", name, v.Value)
		case all && v.Value == 0:
			t.Errorf("end-to-end metric %s is 0", name)
		}
	}
}

// TestMeasureOncePrintsTheContractLine runs the command's single-
// measurement path both ways and checks the result carries exactly the
// registered metrics, after a report that states the workload's reason.
func TestMeasureOncePrintsTheContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the service")
	}
	w, _ := bench.Lookup("sim_batch")
	out := t.TempDir()
	report, err := os.Create(filepath.Join(out, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer report.Close()
	for _, trace := range []bool{false, true} {
		cfg := runConfig{W: w, Seed: 2, Window: 500 * time.Millisecond, Warmup: 100 * time.Millisecond, SetupReps: 2, Trace: trace}
		res, err := measureOnce(context.Background(), cfg, out, report)
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEndDefs
		if trace {
			defs = perLayerDefs
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Errorf("trace=%t: correct %t, attempted %d, failed %d, %d metrics for %d registered",
				trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(defs))
		}
	}
	text, _ := os.ReadFile(report.Name())
	if !strings.Contains(string(text), w.Why) {
		t.Error("the report does not state why the workload exists")
	}
	for _, f := range []string{"sim_batch.spans.csv", "sim_batch.budget.txt", "sim_batch.untraced.json"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Errorf("artefact %s not written: %v", f, err)
		}
	}
}

// TestScrapeSeriesExist holds the service to the series the benchmark
// reads: against freshly built serve.New / fleet.New handlers, every
// family scrapeMetrics asks for must be declared. A renamed or dropped
// series fails here, and fails the traced run, instead of reading as 0.
func TestScrapeSeriesExist(t *testing.T) {
	for _, name := range []string{"cold_raw_direct", "warm_delta_fleet"} {
		w, _ := bench.Lookup(name)
		sys, err := standUp(w, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		s, err := probe.Scrape(context.Background(), http.DefaultClient, sys.MetricsURL())
		sys.Close()
		if err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		d := &runData{cfg: runConfig{W: w}, t0: now, t1: now.Add(time.Second), scrape0: s, scrape1: s}
		out := metrics{}
		if err := scrapeMetrics(out, d); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, ok := out["serve.jobs_accepted"]; !ok {
			t.Errorf("%s: no serve counters read", name)
		}

		// And the check has teeth: drop one family and it must complain.
		delete(s.Declared, "sccserve_cache_hits_total")
		if err := scrapeMetrics(metrics{}, d); err == nil {
			t.Errorf("%s: a missing family went unnoticed", name)
		}
	}
}

// TestManifestMatchesBenchmarkJSON keeps the committed BENCHMARK.json
// equal to what the tables generate, and the tables inside the limits the
// benchmark contract sets.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	m := buildManifest()
	want, _ := json.MarshalIndent(m, "", "  ")
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(got)) != string(want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./bench/sccload -manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, e := range m.EndToEnd {
		check(e.Name)
		if !unit.MatchString(e.Unit) || e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: unit %q, bound %v", e.Name, e.Unit, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) must be an end-to-end metric")
	}
	for _, p := range m.PerLayer {
		check(p.Name)
		if !unit.MatchString(p.Unit) || p.Bound != nil || (p.Better != "lower" && p.Better != "higher") {
			t.Errorf("%s: unit %q, better %q, bound %v", p.Name, p.Unit, p.Better, p.Bound)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(got) > 64<<10 {
		t.Errorf("run_seconds %d, file %d bytes", m.RunSeconds, len(got))
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
}
