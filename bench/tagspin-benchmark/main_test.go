package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly, traced, and checks that each metric
// BENCHMARK.json names is emitted with its unit and that the oracle passes.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp benchSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(sp.Workloads), len(workloads))
	}
	for _, sw := range sp.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not run", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			rep, err := run(w, runConfig{seed: 1, seconds: 1, trace: true, warmup: 200 * time.Millisecond, coldStarts: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.wrong {
				t.Error(p)
			}
			if rep.attempted == 0 {
				t.Error("no locates attempted")
			}
			check := func(kind string, want []metric, got []metric) {
				units := map[string]string{}
				for _, m := range got {
					if m.value != m.value {
						t.Errorf("%s metric %s is NaN", kind, m.name)
					}
					units[m.name] = m.unit
				}
				for _, m := range want {
					unit, ok := units[m.name]
					switch {
					case !ok:
						t.Errorf("%s metric %s not emitted", kind, m.name)
					case unit != m.unit:
						t.Errorf("%s metric %s in %s, BENCHMARK.json says %s", kind, m.name, unit, m.unit)
					}
				}
				if len(got) != len(want) {
					t.Errorf("%d %s metrics emitted, BENCHMARK.json lists %d", len(got), kind, len(want))
				}
			}
			var e2e, layers []metric
			for _, m := range sp.EndToEnd {
				e2e = append(e2e, metric{name: m.Name, unit: m.Unit})
			}
			for _, m := range sp.PerLayer {
				layers = append(layers, metric{name: m.Name, unit: m.Unit})
			}
			check("end-to-end", e2e, rep.endToEnd)
			check("per-layer", layers, rep.layers)

			// The validity checks that hold on any machine: the spans add
			// up, every wrapper span found its request, and the serial
			// replay reproduced every captured peak.
			got := map[string]float64{}
			for _, m := range rep.layers {
				got[m.name] = m.value
			}
			if v := got["trace.unaccounted_share"]; v > 0.05 {
				t.Errorf("trace.unaccounted_share = %v, want ≤ 0.05", v)
			}
			if v := got["trace.unattributed_share"]; v != 0 {
				t.Errorf("trace.unattributed_share = %v, want 0", v)
			}
			if v := got["spectrum.replay_match"]; v != 1 {
				t.Errorf("spectrum.replay_match = %v, want 1", v)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 2, 3, 4, 5, 6, 8, 9, 10}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
