package main

import (
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestWorkloadsSmallScale runs every workload, untraced and traced, at
// about 1/200 of the benchmark's scale. There are no timing assertions:
// it checks that every correctness check passes, that a run prints
// exactly the metrics BENCHMARK.json names, each finite, and that a
// traced run measured every per-layer metric its workload is declared
// to measure (finalize fails the run otherwise).
func TestWorkloadsSmallScale(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		if w.Name == "daemon_wire" && testing.Short() {
			continue // builds the daemon
		}
		for _, trace := range []bool{false, true} {
			cfg := runConfig{root: root, seed: 7, seconds: 0.05, trace: trace, scale: 200}
			if trace {
				cfg.spans = t.TempDir() + "/spans.jsonl"
			}
			res, err := workloads[w.Name].run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			out := finalize(spec, w.Name, cfg, res)
			for _, e := range res.errs {
				t.Errorf("%s trace=%v: check failed: %s", w.Name, trace, e)
			}
			if out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.Name, trace, out.Failed, out.Attempted)
			}
			want := spec.metricsFor(trace)
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := out.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.Name, trace, m.Name, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, m.Name, v.Value)
				}
			}
		}
	}
}

// TestSuiteJSON builds the program and runs it the way a person does,
// without -workload: every workload in a child process at full scale
// (so the measured phase is cut to almost nothing), the children's
// output parsed back into one JSON document.
func TestSuiteJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the program and the daemon, and pays every workload's full set-up")
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	raw, err := exec.Command(bin, "-json", "-trace", "0", "-seconds", "0.05", "-seed", "5").Output()
	if err != nil {
		t.Fatalf("suite run: %v\n%s", err, raw)
	}
	var doc struct {
		Env       envStamp `json:"env"`
		Workloads map[string]struct {
			EndToEnd *childRun `json:"end_to_end"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("suite output is not one JSON document: %v\n%s", err, raw)
	}
	if doc.Env.Seed != 5 || doc.Env.Go == "" {
		t.Errorf("environment stamp %+v", doc.Env)
	}
	for _, w := range spec.Workloads {
		run := doc.Workloads[w.Name].EndToEnd
		if run == nil || !run.Correct || run.Failed != 0 || len(run.Exact) == 0 {
			t.Errorf("%s: %+v", w.Name, run)
			continue
		}
		for _, m := range spec.EndToEnd {
			if v, ok := run.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
	}
}

// TestCellsAreRegular pins the property the serve workloads' bounded
// backlog rests on: every port sends to and receives from exactly
// peersPerPort distinct peers, never itself.
func TestCellsAreRegular(t *testing.T) {
	const ports = 64
	cells := buildCells(ports, 3)
	if len(cells) != ports*peersPerPort {
		t.Fatalf("%d cells, want %d", len(cells), ports*peersPerPort)
	}
	out, in := map[int32]int{}, map[int32]int{}
	pairs := map[cell]bool{}
	for i, c := range cells {
		if c.src == c.dst || pairs[c] {
			t.Fatalf("cell %d (%d->%d) is a self-loop or a repeat", i, c.src, c.dst)
		}
		pairs[c] = true
		out[c.src]++
		in[c.dst]++
	}
	for p := int32(0); p < ports; p++ {
		if out[p] != peersPerPort || in[p] != peersPerPort {
			t.Errorf("port %d: out-degree %d, in-degree %d, want %d each", p, out[p], in[p], peersPerPort)
		}
	}
	for g := 0; g < peersPerPort; g++ {
		srcs := map[int32]bool{}
		for _, c := range cells[g*ports : (g+1)*ports] {
			srcs[c.src] = true
		}
		if len(srcs) != ports {
			t.Errorf("group %d offers from %d ports, want every port once", g, len(srcs))
		}
	}
}
