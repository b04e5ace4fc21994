// Command bench is the repository benchmark: six workloads that between
// them cover every layer from ingest to the wire, each reporting the
// end-to-end metrics a user of the system sees and, in a separate traced
// run, the per-layer metrics that say where the time went. BENCHMARK.json
// at the repository root is the catalogue of workload and metric names;
// this program reads it and refuses to print a metric it does not list.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -seed 1                      every workload, untraced then traced
//	bash bench/run.sh -workload serve_ingest       one workload
//	bash bench/run.sh -workload daemon_wire -trace 1 -spans spans.jsonl
//	bash bench/run.sh -selfcheck                   the untraced suite twice, compared
//
// The last line of a -workload run is one JSON object with the keys
// correct, attempted, failed and metrics; see README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// runConfig is what one workload run is parameterised by.
type runConfig struct {
	root    string  // repository root: testdata/, cmd/ and BENCHMARK.json live here
	seed    uint64  // every generated input derives from it
	seconds float64 // length of the measured phase
	trace   bool    // traced run: per-layer metrics instead of end-to-end ones
	scale   int     // divides the fixed warm-up and block sizes: 1, except in bench_test.go
	spans   string  // with trace: file the spans are written to, "" for none
	env     envStamp
}

// scaled divides a fixed operation count by the test scale, keeping it
// at least min.
func (c runConfig) scaled(n, min int) int {
	if n /= c.scale; n < min {
		return min
	}
	return n
}

// result is what one workload run reports.
type result struct {
	metrics   map[string]float64 // by BENCHMARK.json name
	exact     map[string]string  // digests and counts that repeat exactly for a seed
	attempted int64              // operations issued
	failed    int64              // operations that failed or were refused
	errs      []string           // failed correctness checks
	notes     []string           // sample counts, warnings
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, exact: map[string]string{}}
}

func (r *result) failf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one BENCHMARK.json workload: its implementation and the
// per-layer metrics its traced run measures. A traced run that leaves
// one of them out fails. The layers it never enters it may not set; they
// appear, as 0, only in the result line, where the benchmark contract
// wants every per-layer metric.
type workload struct {
	run    func(runConfig) (*result, error)
	layers []string
}

var (
	serveLayers = []string{
		"serve.offer_ns", "serve.step_us_p99", "serve.step_other_us_p50", "serve.accounted_frac",
		"demand.add_ns", "demand.copyfrom_us_p50", "demand.drain_us_p50",
		"demand.nonzeros", "demand.zero_crossings_per_epoch",
		"match.schedule_us_p50", "match.schedule_us_p99", "match.pairs_per_epoch",
		"trace.overhead_frac",
	}
	// Only a frame-decomposing algorithm refills.
	framesLayers = append(append([]string{}, serveLayers...),
		"match.frames_computed", "match.refill_us_p50", "match.refill_frac")
	daemonLayers = []string{
		"hybridschedd.cpu_us_per_offer", "hybridschedd.bytes_in_per_offer", "hybridschedd.bytes_out_per_offer",
		"hybridschedd.step_rtt_us_p50", "hybridschedd.round_ms_p99",
		"hybridschedd.inproc_round_ms_p50", "hybridschedd.wire_share",
		"hybridschedd.sub_frames", "hybridschedd.sub_dropped",
		"loadgen.busy_frac", "trace.overhead_frac",
	}
	batchLayers = []string{
		"runner.serial_packets_per_s", "runner.parallel_speedup", "runner.gc_cpu_frac",
		"fabric.ns_per_packet", "fabric.bytes_per_packet", "fabric.allocs_per_packet",
		"traffic.gen_ns_per_packet", "trace.replay_ns_per_packet", "trace.overhead_frac",
	}
)

// workloads is keyed by BENCHMARK.json workload name.
var workloads = map[string]workload{
	"serve_ingest":   {func(c runConfig) (*result, error) { return runServe(c, serveIngest) }, serveLayers},
	"serve_snapshot": {func(c runConfig) (*result, error) { return runServe(c, serveSnapshot) }, serveLayers},
	"serve_match":    {func(c runConfig) (*result, error) { return runServe(c, serveMatch) }, serveLayers},
	"serve_frames":   {func(c runConfig) (*result, error) { return runServe(c, serveFrames) }, framesLayers},
	"daemon_wire":    {runDaemonWire, daemonLayers},
	"batch_pack":     {runBatchPack, batchLayers},
}

// metricSpec and benchSpec mirror BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which this program does not implement", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json lists %d workloads, this program implements %d", len(spec.Workloads), len(workloads))
	}
	// Every per-layer metric is measured by some workload, and a workload
	// measures only listed ones.
	measured := map[string]bool{}
	for name, w := range workloads {
		for _, layer := range w.layers {
			if !slices.ContainsFunc(spec.PerLayer, func(m metricSpec) bool { return m.Name == layer }) {
				return nil, fmt.Errorf("workload %s measures %s, which BENCHMARK.json does not list", name, layer)
			}
			measured[layer] = true
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			return nil, fmt.Errorf("BENCHMARK.json lists per-layer metric %s, which no workload measures", m.Name)
		}
	}
	return &spec, nil
}

// metricsFor is the metric list a run must print: the end-to-end ones
// untraced, the per-layer ones traced.
func (s *benchSpec) metricsFor(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// findRoot walks up from the working directory to the repository root,
// so the program runs from the root (bench/run.sh) and from bench/ alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "hybridschedd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the hybridsched repository (no cmd/hybridschedd above the working directory)")
		}
		dir = parent
	}
}

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	var (
		workload  = flag.String("workload", "", "run one workload in this process (default: every workload, each in a fresh child process)")
		seed      = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both, when running every workload)")
		spans     = flag.String("spans", "", "with -trace 1: write the recorded spans to this file as JSON lines (suffixed .WORKLOAD when running every workload)")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice and compare every end-to-end metric against its bound")
		asJSON    = flag.Bool("json", false, "running every workload: print one JSON document instead of text")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -help")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The load generator is one process on at most four cores, so results
	// from hosts with more cores stay comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	cfg := runConfig{root: root, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, spans: *spans}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	cfg.env = stampEnv(cfg)

	if *workload != "" {
		if _, ok := workloads[*workload]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		return runOne(spec, *workload, cfg)
	}
	suite := &suiteRunner{spec: spec, cfg: cfg}
	if *selfcheck {
		return suite.selfcheck()
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}
	return suite.runAll(modes, *asJSON)
}

// outcome is the contract's result line: the last line a -workload run
// prints on standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalize turns a workload's result into the result line: exactly the
// metrics BENCHMARK.json lists for the mode, each with its unit. A
// metric the workload should have measured and did not, or set and
// should not have, fails the run.
func finalize(spec *benchSpec, name string, cfg runConfig, res *result) outcome {
	out := outcome{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range spec.metricsFor(cfg.trace) {
		v, ok := res.metrics[m.Name]
		owned := !cfg.trace || slices.Contains(workloads[name].layers, m.Name)
		switch {
		case owned && !ok:
			res.failf("metric %s was not measured", m.Name)
		case !owned && ok:
			res.failf("metric %s is not one workload %s measures", m.Name, name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.failf("metric %s is not finite", m.Name)
			v = 0
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for got := range res.metrics {
		if _, listed := out.Metrics[got]; !listed {
			res.failf("metric %s is not listed in BENCHMARK.json", got)
		}
	}
	if res.attempted < 1 {
		res.failf("no operation was attempted")
	}
	out.Correct = len(res.errs) == 0
	return out
}

// runOne runs one workload in this process and prints its report: the
// environment stamp, every metric it measured by name with its unit, the
// values that must repeat exactly, the checks, and the result line.
func runOne(spec *benchSpec, name string, cfg runConfig) int {
	res, err := workloads[name].run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	out := finalize(spec, name, cfg, res)
	fmt.Printf("# workload %s, %s run, %.3g s measured\n", name, map[bool]string{false: "untraced", true: "traced"}[cfg.trace], cfg.seconds)
	fmt.Println(cfg.env.line())
	for _, m := range spec.metricsFor(cfg.trace) {
		if _, measured := res.metrics[m.Name]; measured {
			mv := out.Metrics[m.Name]
			fmt.Printf("%-38s %16s %s\n", m.Name, strconv.FormatFloat(mv.Value, 'g', 6, 64), mv.Unit)
		}
	}
	fmt.Printf("%-38s %16d of %d attempted\n", "failed", res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	exact, _ := json.Marshal(res.exact) // a map of strings always encodes
	fmt.Printf("exact %s\n", exact)
	for _, e := range res.errs {
		fmt.Println("CHECK FAILED:", e)
	}
	if out.Correct {
		fmt.Println("checks passed")
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// suiteRunner runs workloads in child processes, one fresh process per
// workload run, so that peak memory is per workload and one workload's
// garbage is not another's GC load.
type suiteRunner struct {
	spec *benchSpec
	cfg  runConfig
}

// childRun is what the parent keeps of one child's output.
type childRun struct {
	outcome
	Exact map[string]string `json:"exact"`
}

func (s *suiteRunner) child(name string, trace, show bool) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatUint(s.cfg.seed, 10),
		"-seconds", strconv.FormatFloat(s.cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[trace],
	}
	if trace && s.cfg.spans != "" {
		args = append(args, "-spans", s.cfg.spans+"."+name)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = s.cfg.root
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	if show {
		os.Stdout.Write(buf.Bytes())
		fmt.Println()
	}
	run := &childRun{}
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "exact "); ok {
			if err := json.Unmarshal([]byte(rest), &run.Exact); err != nil {
				return nil, fmt.Errorf("%s: exact line: %w", name, err)
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &run.outcome); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return run, nil
}

// runAll runs every workload in each of the given modes and exits
// non-zero if any check failed.
func (s *suiteRunner) runAll(modes []bool, asJSON bool) int {
	type workloadDoc struct {
		EndToEnd *childRun `json:"end_to_end,omitempty"`
		PerLayer *childRun `json:"per_layer,omitempty"`
	}
	doc := struct {
		Env       envStamp               `json:"env"`
		Workloads map[string]workloadDoc `json:"workloads"`
	}{Env: s.cfg.env, Workloads: map[string]workloadDoc{}}
	status := 0
	for _, w := range s.spec.Workloads {
		var wd workloadDoc
		for _, trace := range modes {
			run, err := s.child(w.Name, trace, !asJSON)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !run.Correct {
				status = 1
			}
			if trace {
				wd.PerLayer = run
			} else {
				wd.EndToEnd = run
			}
		}
		doc.Workloads[w.Name] = wd
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	} else if status == 0 {
		fmt.Println("all workloads passed their checks")
	} else {
		fmt.Println("SOME CHECKS FAILED")
	}
	return status
}

// selfcheck is the repeatability evidence: the untraced suite twice on
// the same build, every end-to-end metric compared against its bound and
// every exact value for equality.
func (s *suiteRunner) selfcheck() int {
	fmt.Println(s.cfg.env.line())
	fmt.Printf("%-15s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	status := 0
	for _, w := range s.spec.Workloads {
		var runs [2]*childRun
		for i := range runs {
			run, err := s.child(w.Name, false, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !run.Correct {
				fmt.Printf("%-15s run %d FAILED its checks\n", w.Name, i+1)
				status = 1
			}
			runs[i] = run
		}
		for _, m := range s.spec.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if !(diff <= m.Bound) {
				verdict = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Printf("%-15s %-18s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w.Name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
		keys := make([]string, 0, len(runs[0].Exact))
		for k := range runs[0].Exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			verdict := "repeats"
			if second, ok := runs[1].Exact[k]; !ok || second != runs[0].Exact[k] {
				verdict = "DIFFERS: " + second
				status = 1
			}
			fmt.Printf("%-15s %-18s %s  %s\n", w.Name, k, runs[0].Exact[k], verdict)
		}
		if len(runs[1].Exact) != len(keys) {
			fmt.Printf("%-15s the runs print different sets of exact values\n", w.Name)
			status = 1
		}
	}
	if status == 0 {
		fmt.Println("selfcheck passed: every metric within its bound, every exact value repeats")
	} else {
		fmt.Println("SELFCHECK FAILED")
	}
	return status
}
