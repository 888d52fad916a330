package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric sets a run emits in
// step with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)",
					kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, e2eMetrics)
	check("per_layer", bench.PerLayer, layerMetrics)
}
