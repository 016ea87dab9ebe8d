package bench

import (
	"reflect"
	"testing"
	"time"
)

func TestWorkloadTable(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range Workloads {
		if seen[w.Name] {
			t.Errorf("workload %s listed twice", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: rationale must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
		if len(w.Specs) == 0 {
			t.Errorf("%s: no specs", w.Name)
		}
		if got, ok := Lookup(w.Name); !ok || got.Name != w.Name {
			t.Errorf("Lookup(%s) failed", w.Name)
		}
	}
	for _, name := range []string{"cold_raw_direct", "warm_delta_fleet", "open_mixed_fleet", "sim_batch"} {
		if !seen[name] {
			t.Errorf("workload %s missing: later issues refer to it by name", name)
		}
	}
}

func TestSameSeedSameJobs(t *testing.T) {
	for _, w := range Workloads {
		var a, b, c []Job
		for i := 0; i < 100; i++ {
			a = append(a, w.Job(7, i))
			b = append(b, w.Job(7, i))
			c = append(c, w.Job(8, i))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different job sequences", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same job sequence", w.Name)
		}
		ids := map[int64]bool{}
		for _, j := range a {
			if ids[j.Seed()] {
				t.Fatalf("%s: job seed %d repeats; spans are keyed by it", w.Name, j.Seed())
			}
			ids[j.Seed()] = true
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w, _ := Lookup("open_mixed_fleet")
	window := 25 * time.Second
	a, b, c := w.Schedule(3, window), w.Schedule(3, window), w.Schedule(4, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != len(c) {
		t.Fatalf("arrival count depends on the seed: %d vs %d", len(a), len(c))
	}

	edges := w.StepWindows(window)
	perStep, mix := [3]int{}, [2]map[string]int{{}, {}}
	var prev time.Duration
	ids := map[int64]bool{}
	for i, arr := range a {
		if arr.Due < prev {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		prev = arr.Due
		if arr.Due < edges[arr.Step] || arr.Due >= edges[arr.Step+1] {
			t.Fatalf("arrival %d due at %v lies outside step %d", i, arr.Due, arr.Step)
		}
		perStep[arr.Step]++
		mix[0][arr.Job.Spec.Key()]++
		mix[1][c[i].Job.Spec.Key()]++
		if ids[arr.Job.Seed()] {
			t.Fatalf("job seed %d repeats", arr.Job.Seed())
		}
		ids[arr.Job.Seed()] = true
	}
	for step, n := range perStep {
		want := w.Rates[step] * (edges[step+1] - edges[step]).Seconds()
		if float64(n) < want-1 || float64(n) > want+1 {
			t.Errorf("step %d has %d arrivals, rate×duration is %.1f", step, n, want)
		}
	}
	if !reflect.DeepEqual(mix[0], mix[1]) {
		t.Error("the job mix depends on the seed; only order and timing should")
	}
}

func TestZipfCounts(t *testing.T) {
	counts := zipfCounts(252, 48, 1.1)
	total := 0
	for i, c := range counts {
		total += c
		if i > 0 && c > counts[i-1] {
			t.Errorf("rank %d drawn more often (%d) than rank %d (%d)", i+1, c, i, counts[i-1])
		}
	}
	if total != 252 {
		t.Errorf("counts sum to %d, want 252", total)
	}
	if counts[0] < 4*counts[9] {
		t.Errorf("rank 1 (%d) should dwarf rank 10 (%d) under Zipf(1.1)", counts[0], counts[9])
	}
}
