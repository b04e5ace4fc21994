// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON performance record — the format of the committed
// BENCH_core.json baseline that gives the repo a recorded performance
// trajectory across PRs:
//
//	go test -run '^$' -bench BenchmarkMatch -benchmem . | benchjson -o BENCH_core.json
//
// Each benchmark line becomes {name, ns_op, b_op, allocs_op}; lines
// without allocation columns (benchmarks that did not ReportAllocs) keep
// ns_op and record b_op/allocs_op as -1. The records sit under
// "benchmarks" beside an "env" stamp — the CPU model `go test` printed,
// the GOMAXPROCS suffix of the benchmark names and this toolchain's Go
// version — so a ledger says where it was measured.
//
// With -compare baseline.json the command becomes the perf-regression
// gate (`make bench-compare`): instead of writing records it diffs the
// fresh run against the committed baseline and exits nonzero on any
// allocs/op increase, on B/op growth beyond the -byte-noise allowance,
// on ns/op regression beyond -tolerance, or on a baseline entry missing
// from the run. When enough benchmarks are shared with the baseline the
// ns/op ratios are first normalized by their suite-wide median, so a
// uniformly slower or faster machine neither trips nor masks the gate:
//
//	go test -run '^$' -bench BenchmarkMatch -benchmem . | benchjson -compare BENCH_core.json
//
// The stamp takes no part in the gate; when the baseline's differs from
// the run's (or the baseline predates the stamp) both are printed, so an
// ns/op diff across hosts is never read as one on the same host.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Env says where a ledger was measured.
type Env struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (e Env) String() string {
	if e == (Env{}) {
		return "unstamped"
	}
	return fmt.Sprintf("cpu %q, GOMAXPROCS %d, %s", e.CPU, e.GOMAXPROCS, e.Go)
}

// envNote is what -compare prints when the baseline was not measured
// where this run was; the gate itself never reads a stamp.
func envNote(baseline, run Env) string {
	if baseline == run {
		return ""
	}
	return fmt.Sprintf("baseline measured on %v; this run on %v", baseline, run)
}

// Ledger is the committed file: a stamp and the records.
type Ledger struct {
	Env        Env      `json:"env"`
	Benchmarks []Record `json:"benchmarks"`
}

// Record is one benchmark measurement.
type Record struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baselinePath := flag.String("compare", "", "baseline records file to diff against instead of writing records")
	tolerance := flag.Float64("tolerance", 0.20, "with -compare: allowed fractional ns/op regression")
	byteNoise := flag.Int64("byte-noise", 64, "with -compare: allowed absolute B/op growth (sub-allocation jitter)")
	retired := flag.String("retired", "", "with -compare: comma-separated baseline entries allowed to be absent from the run (exact names, or prefixes ending in '*') — the deliberate retirement path for renamed or removed benchmarks until bench-json rewrites the baseline")
	flag.Parse()

	records, env, err := parse(bufio.NewScanner(os.Stdin))
	env.Go = runtime.Version()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(records) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	records = collapse(records)
	if *baselinePath != "" {
		baseline, err := loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -compare: %v\n", err)
			os.Exit(1)
		}
		violations, notes := compare(baseline.Benchmarks, records, *tolerance, *byteNoise, splitRetired(*retired))
		if n := envNote(baseline.Env, env); n != "" {
			notes = append(notes, n)
		}
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "benchjson: note:", n)
		}
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "benchjson: FAIL:", v)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within the %s baseline\n",
			len(baseline.Benchmarks), *baselinePath)
		return
	}
	buf, err := json.MarshalIndent(Ledger{env, records}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// splitRetired parses the -retired flag: comma-separated patterns,
// empty segments and surrounding whitespace dropped.
func splitRetired(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, pat := range strings.Split(s, ",") {
		if pat = strings.TrimSpace(pat); pat != "" {
			out = append(out, pat)
		}
	}
	return out
}

// parse extracts benchmark result lines and what the output says of the
// machine. The format is fixed by the testing package: a `cpu:` header,
// then name-GOMAXPROCS (no suffix at 1), iterations, value unit pairs.
func parse(sc *bufio.Scanner) ([]Record, Env, error) {
	var out []Record
	env := Env{CPU: "unknown", GOMAXPROCS: 1}
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			env.CPU = strings.TrimSpace(cpu)
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name, procs := splitProcSuffix(f[0])
		env.GOMAXPROCS = procs
		r := Record{Name: name, BOp: -1, AllocsOp: -1}
		ok := false
		for i := 2; i+1 < len(f); i += 2 {
			v, unit := f[i], f[i+1]
			switch unit {
			case "ns/op":
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, env, fmt.Errorf("bad ns/op %q: %w", v, err)
				}
				r.NsOp = x
				ok = true
			case "B/op":
				x, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, env, fmt.Errorf("bad B/op %q: %w", v, err)
				}
				r.BOp = x
			case "allocs/op":
				x, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, env, fmt.Errorf("bad allocs/op %q: %w", v, err)
				}
				r.AllocsOp = x
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, env, sc.Err()
}

// collapse merges repeated measurements of one benchmark (go test
// -count N) into a single record holding the per-metric minimum — the
// best observed steady state, which is what both the recorded baseline
// and the regression gate compare. Scheduler noise only ever inflates a
// measurement, so the minimum over repetitions is the stable statistic.
// First-seen order is kept.
func collapse(recs []Record) []Record {
	idx := make(map[string]int, len(recs))
	var out []Record
	for _, r := range recs {
		i, seen := idx[r.Name]
		if !seen {
			idx[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		if r.NsOp < out[i].NsOp {
			out[i].NsOp = r.NsOp
		}
		out[i].BOp = minNonNeg(out[i].BOp, r.BOp)
		out[i].AllocsOp = minNonNeg(out[i].AllocsOp, r.AllocsOp)
	}
	return out
}

// minNonNeg is the minimum treating -1 (column absent) as unknown, not
// as a value: one repetition with real columns beats any number without.
func minNonNeg(a, b int64) int64 {
	if a < 0 {
		return b
	}
	if b >= 0 && b < a {
		return b
	}
	return a
}

// splitProcSuffix splits the trailing -GOMAXPROCS off a benchmark name
// (BenchmarkMatch/islip/n=128-8 -> BenchmarkMatch/islip/n=128, 8); the
// testing package omits the suffix at GOMAXPROCS 1.
func splitProcSuffix(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], procs
		}
	}
	return name, 1
}
