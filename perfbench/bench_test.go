package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"sttdl1/internal/dse"
)

func TestJobSelectionsDeterministicAndDistinct(t *testing.T) {
	a, b := jobSelections(7), jobSelections(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different job sequences")
	}
	if len(a) < 100 {
		t.Fatalf("%d jobs; the 90th percentile needs at least 100", len(a))
	}
	seen := map[string]bool{}
	for i, sel := range a {
		k := selectionKey(sel)
		if seen[k] {
			t.Fatalf("job %d repeats selection %s", i, k)
		}
		seen[k] = true
		if _, err := dse.Restrict(dse.Proposal(), sel); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if reflect.DeepEqual(a, jobSelections(8)) {
		t.Fatal("seeds 7 and 8 gave the same order")
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that every metric the
// benchmark prints is declared in BENCHMARK.json with the same unit,
// that every declared metric is printed, and that every declared
// workload exists.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the benchmark", w.Name)
		}
	}
	check := func(kind string, printed []metricName, declared []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		for _, p := range printed {
			u, ok := want[p.name]
			if !ok {
				t.Errorf("%s metric %q is printed but not in BENCHMARK.json", kind, p.name)
			} else if u != p.unit {
				t.Errorf("%s metric %q: printed unit %q, BENCHMARK.json says %q", kind, p.name, p.unit, u)
			}
			delete(want, p.name)
		}
		for name := range want {
			t.Errorf("%s metric %q is in BENCHMARK.json but never printed", kind, name)
		}
	}
	check("end-to-end", endToEndNames(), spec.EndToEnd)
	check("per-layer", perLayerNames(), spec.PerLayer)

	// The end-to-end result must carry exactly the declared names.
	rep := &childReport{Samples: []sampleReport{{WallS: 1, Evals: 1, LatencyS: []float64{1}}}}
	got := endToEnd(rep, []float64{1}, 1)
	if len(got) != len(endToEndNames()) {
		t.Errorf("endToEnd reports %d metrics, want %d", len(got), len(endToEndNames()))
	}
	for _, n := range endToEndNames() {
		if m, ok := got[n.name]; !ok || m.Unit != n.unit {
			t.Errorf("endToEnd: metric %q missing or with unit %q", n.name, m.Unit)
		}
	}
}

// TestShortWorkloads runs a reduced sample of each workload, untraced
// and traced, and checks that both pass their output checks, simulate
// identically and run the same engine tasks.
func TestShortWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := workloads[name](opts{workload: name, seed: 3, root: "..", short: true})
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			defer w.teardown()
			plain, err := w.sample(nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := w.sample(tr)
			if err != nil {
				t.Fatal(err)
			}
			if p := w.problems(); len(p) > 0 {
				t.Fatalf("output check failed: %v", p)
			}
			if plain.Failed != 0 || traced.Failed != 0 || plain.Ops == 0 {
				t.Fatalf("failed %d+%d of %d operations", plain.Failed, traced.Failed, plain.Ops)
			}
			if plain.Sim != traced.Sim {
				t.Fatalf("simulated statistics differ: untraced %+v, traced %+v", plain.Sim, traced.Sim)
			}
			if plain.Tasks != traced.Tasks {
				t.Fatalf("untraced sample ran %d engine tasks, traced %d", plain.Tasks, traced.Tasks)
			}
			m := tr.layerMetrics()
			for _, n := range perLayerNames() {
				if v := m[n.name]; v < 0 {
					t.Errorf("%s = %g", n.name, v)
				}
			}
		})
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]time.Duration{{0, 4}, {2, 6}, {8, 9}}
	if got := covered(ivs); got != 7 {
		t.Fatalf("covered = %d, want 7", got)
	}
}
