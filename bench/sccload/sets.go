package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"sccpipe/bench"
	"sccpipe/internal/host"
)

// child runs one measurement in a fresh process — every workload starts
// from a cold runtime, empty caches and its own peak-RSS counter — and
// parses the contract line it prints last.
func child(ctx context.Context, workload string, seed int64, seconds float64, trace int, outDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, runErr)
		}
		return nil, fmt.Errorf("%s (trace %d): no result line: %v", workload, trace, err)
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s (trace %d, seed %d): verification failed", workload, trace, seed)
	}
	return &res, runErr
}

// environment describes the machine and build a result document came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnvironment(ctx context.Context) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     host.BuildVersion(),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if env.Commit == "devel" {
		// Built without VCS stamping: ask git, if this is a git checkout.
		if out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	return env
}

// runAll runs every workload untraced and then traced, each run in a fresh
// process, and prints one JSON document.
func runAll(ctx context.Context, seed int64, seconds float64, outDir string) error {
	type entry struct {
		Name      string  `json:"name"`
		Why       string  `json:"why"`
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		EndToEnd  metrics `json:"end_to_end"`
		PerLayer  metrics `json:"per_layer"`
	}
	doc := struct {
		Env        environment `json:"env"`
		Seed       int64       `json:"seed"`
		RunSeconds float64     `json:"run_seconds"`
		Workloads  []entry     `json:"workloads"`
	}{Env: readEnvironment(ctx), Seed: seed, RunSeconds: seconds}
	for _, w := range bench.Workloads {
		fmt.Fprintf(os.Stderr, "sccload: %s untraced\n", w.Name)
		e2e, err := child(ctx, w.Name, seed, seconds, 0, outDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sccload: %s traced\n", w.Name)
		pl, err := child(ctx, w.Name, seed, seconds, 1, outDir)
		if err != nil {
			return err
		}
		doc.Workloads = append(doc.Workloads, entry{
			Name: w.Name, Why: w.Why, Correct: e2e.Correct && pl.Correct,
			Attempted: e2e.Attempted, Failed: e2e.Failed,
			EndToEnd: e2e.Metrics, PerLayer: pl.Metrics,
		})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// quartiles returns the quartiles of values as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the driver judges spreads by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return x[j-1] + frac*(x[j]-x[j-1])
	}
	return at(1), at(2), at(3)
}

// runAA runs n untraced sets of every workload — a fresh process per run,
// a different seed per set, the workload order reversed on every other set
// — and prints, per workload and metric, the median, the quartiles and the
// interquartile spread as a share of the median next to the metric's
// bound: running the same code against itself must stay inside it.
func runAA(ctx context.Context, n int, seed int64, seconds float64, outDir string) error {
	values := make(map[string]map[string][]float64) // workload → metric → per-set values
	for set := 0; set < n; set++ {
		order := append([]bench.Workload(nil), bench.Workloads...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			fmt.Fprintf(os.Stderr, "sccload: set %d/%d %s\n", set+1, n, w.Name)
			res, err := child(ctx, w.Name, seed+int64(set), seconds, 0, outDir)
			if err != nil {
				return err
			}
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, v := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v.Value)
			}
		}
	}
	env := readEnvironment(ctx)
	fmt.Printf("A/A: %d sets, %g s timed, seeds %d..%d, %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n\n",
		n, seconds, seed, seed+int64(n)-1, env.CPUModel, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)
	fmt.Println("| workload | metric | unit | median | q1 | q3 | spread | bound | spread ≤ bound/3 |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range bench.Workloads {
		for _, def := range endToEndDefs {
			q1, q2, q3 := quartiles(values[w.Name][def.Name])
			spread := (q3 - q1) / q2
			verdict := "yes"
			if def.Name != "setup_s" && spread > def.Bound/3 {
				verdict = "NO"
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.4g | %.3f | %.2f | %s |\n",
				w.Name, def.Name, def.Unit, q2, q1, q3, spread, def.Bound, verdict)
		}
	}
	fmt.Print("\nEvery run, in set order:\n\n")
	fmt.Println("| workload | metric | values |")
	fmt.Println("|---|---|---|")
	for _, w := range bench.Workloads {
		for _, def := range endToEndDefs {
			var vs []string
			for _, v := range values[w.Name][def.Name] {
				vs = append(vs, strconv.FormatFloat(v, 'g', 5, 64))
			}
			fmt.Printf("| %s | %s | %s |\n", w.Name, def.Name, strings.Join(vs, " "))
		}
	}
	return nil
}
