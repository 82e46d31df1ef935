package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json at the root of
// the repository in step with the metrics and workloads this command
// reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nwant %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v\nwant %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	setupBound := 0.0
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setupBound {
			t.Errorf("%s bound %v: want (0, 0.25] and at most setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
}
