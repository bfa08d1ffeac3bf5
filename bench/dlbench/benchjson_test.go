package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSON holds BENCHMARK.json to the contract's schema and to
// what the harness actually prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}

	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	// 4 + 22 x workloads runs and two builds must end within 3420 s.
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads", len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics, the harness prints %d", len(spec.EndToEnd), len(endToEndUnits))
	}
	maxBound, setupBound := 0.0, 0.0
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if endToEndUnits[m.Name] != m.Unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q, the harness prints %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be present with the largest bound (%v < %v)", setupBound, maxBound)
	}

	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 || len(spec.PerLayer) != len(layerUnits) {
		t.Errorf("%d per-layer metrics, the harness prints %d", len(spec.PerLayer), len(layerUnits))
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if layerUnits[m.Name] != m.Unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q, the harness prints %q", m.Name, m.Unit, layerUnits[m.Name])
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}
