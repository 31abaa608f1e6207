package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$`)
)

// decodeStrict decodes b into v, rejecting unknown keys.
func decodeStrict(t *testing.T, b []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
}

// TestBenchmarkJSONForm checks that BENCHMARK.json holds only the fixed
// form (command, directories, run length, workloads with their reasons,
// metrics with name, unit and direction, and a bound for each
// end-to-end metric) and that it declares exactly the workloads and
// metrics this program runs and prints.
func TestBenchmarkJSONForm(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	decodeStrict(t, raw, &top)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(top); !reflect.DeepEqual(got, want) {
		t.Fatalf("top-level keys %v, want %v", got, want)
	}

	var command, paths []string
	var runSeconds int
	decodeStrict(t, top["command"], &command)
	decodeStrict(t, top["paths"], &paths)
	decodeStrict(t, top["run_seconds"], &runSeconds)
	if !reflect.DeepEqual(command, []string{"python3", "perfbench/run.py"}) {
		t.Errorf("command %q", command)
	}
	if !reflect.DeepEqual(paths, []string{"perfbench"}) {
		t.Errorf("paths %q", paths)
	}
	for _, p := range paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}

	var wls []struct{ Name, Why string }
	decodeStrict(t, top["workloads"], &wls)
	var names []string
	for _, w := range wls {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, the program runs %v", names, workloadNames())
	}

	type e2e struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var ends []e2e
	decodeStrict(t, top["end_to_end"], &ends)
	var gotEnds []metricSpec
	for _, m := range ends {
		gotEnds = append(gotEnds, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound == nil || !(*m.Bound > 0 && *m.Bound <= 0.25) {
			t.Errorf("end-to-end %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	if !reflect.DeepEqual(gotEnds, endToEnd) {
		t.Errorf("end_to_end %v, the program declares %v", gotEnds, endToEnd)
	}
	var layers []struct{ Name, Unit, Better string }
	decodeStrict(t, top["per_layer"], &layers)
	var gotLayers []metricSpec
	for _, m := range layers {
		gotLayers = append(gotLayers, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(gotLayers, perLayer) {
		t.Errorf("per_layer %v, the program declares %v", gotLayers, perLayer)
	}

	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q (unit %q): malformed name or unit", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better is %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range wls {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q malformed or reused", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestResultHoldsEveryMetricOfItsMode(t *testing.T) {
	r := newRun()
	for _, m := range endToEnd {
		r.set(m.name, 1)
	}
	r.set("core.run_s", 2) // measured, but a per-layer metric
	res, err := r.result(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	if m := res.Metrics["guest_insts_per_s"]; m.Unit != "1/s" {
		t.Errorf("guest_insts_per_s unit %q", m.Unit)
	}
	if _, err := r.result(true); err == nil {
		t.Error("a traced result missing per-layer metrics was accepted")
	}
	delete(r.values, "wall_s")
	if _, err := r.result(false); err == nil {
		t.Error("a result missing wall_s was accepted")
	}
}

func TestRunCountsExpectedFailuresApart(t *testing.T) {
	r := newRun()
	r.op(nil, false)
	r.op(os.ErrInvalid, true)
	if r.attempted != 2 || r.failed != 1 || len(r.problems) != 0 {
		t.Errorf("expected failure: attempted %d failed %d problems %v", r.attempted, r.failed, r.problems)
	}
	r.op(os.ErrInvalid, false)
	if r.failed != 2 || len(r.problems) != 1 {
		t.Errorf("unexpected failure: failed %d problems %v", r.failed, r.problems)
	}
}
