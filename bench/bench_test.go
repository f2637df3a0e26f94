package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON is the part of the repository's BENCHMARK.json that
// names the workloads and the metrics.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

// TestSmoke runs every workload and the traced pass with 50 ms reps and
// checks the result lines against BENCHMARK.json: every declared
// metric is emitted with its unit and a finite value, nothing else is,
// and no transfer failed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark runs %q", i, w.Name, workloads[i].name)
		}
	}

	cfg := config{seed: 1, reps: 1, repLen: 50 * time.Millisecond, rungLen: 50 * time.Millisecond, trace: true}
	runs, err := run(cfg, workloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		for perLayer, declared := range [][]declaredMetric{spec.EndToEnd, spec.PerLayer} {
			line := result([]*workloadRun{r}, perLayer == 1)
			if line.Failed != 0 || !line.Correct || line.Attempted == 0 {
				t.Errorf("%s: %d of %d transfers failed", r.w.name, line.Failed, line.Attempted)
			}
			for _, m := range declared {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s is not emitted", r.w.name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", r.w.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", r.w.name, m.Name, got.Value)
				}
			}
			if len(line.Metrics) != len(declared) {
				t.Errorf("%s: %d metrics emitted, %d declared", r.w.name, len(line.Metrics), len(declared))
			}
		}
	}
	if err := writeSpans(filepath.Join(t.TempDir(), "spans.jsonl"), runs); err != nil {
		t.Fatal(err)
	}
}
