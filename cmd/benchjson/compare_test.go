package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rec(name string, ns float64, b, allocs int64) Record {
	return Record{Name: name, NsOp: ns, BOp: b, AllocsOp: allocs}
}

func TestCompareGate(t *testing.T) {
	baseline := []Record{
		rec("BenchmarkMatch/islip/n=512", 100_000, 3, 0),
		rec("BenchmarkMatch/tdma/n=16", 64, 0, 0),
		rec("BenchmarkFrameDecompose/n=16", 99_000, -1, -1),
	}
	cases := []struct {
		name    string
		current []Record
		want    []string // substrings of the expected violations, in order
	}{
		{
			name: "identical run passes",
			current: []Record{
				rec("BenchmarkMatch/islip/n=512", 100_000, 3, 0),
				rec("BenchmarkMatch/tdma/n=16", 64, 0, 0),
				rec("BenchmarkFrameDecompose/n=16", 99_000, -1, -1),
			},
		},
		{
			name: "byte noise within the allowance passes, improvements pass",
			current: []Record{
				rec("BenchmarkMatch/islip/n=512", 90_000, 40, 0),
				rec("BenchmarkMatch/tdma/n=16", 60, 0, 0),
				rec("BenchmarkFrameDecompose/n=16", 80_000, -1, -1),
			},
		},
		{
			name: "any allocs/op increase hard-fails even with fast timing",
			current: []Record{
				rec("BenchmarkMatch/islip/n=512", 50_000, 3, 1),
				rec("BenchmarkMatch/tdma/n=16", 64, 0, 0),
				rec("BenchmarkFrameDecompose/n=16", 99_000, -1, -1),
			},
			want: []string{"allocs/op 0 -> 1"},
		},
		{
			name: "byte growth beyond the allowance fails",
			current: []Record{
				rec("BenchmarkMatch/islip/n=512", 100_000, 200, 0),
				rec("BenchmarkMatch/tdma/n=16", 64, 0, 0),
				rec("BenchmarkFrameDecompose/n=16", 99_000, -1, -1),
			},
			want: []string{"B/op 3 -> 200"},
		},
		{
			name: "ns/op regression beyond tolerance fails",
			current: []Record{
				rec("BenchmarkMatch/islip/n=512", 130_000, 3, 0),
				rec("BenchmarkMatch/tdma/n=16", 64, 0, 0),
				rec("BenchmarkFrameDecompose/n=16", 99_000, -1, -1),
			},
			want: []string{"ns/op"},
		},
		{
			name: "ns/op within tolerance passes",
			current: []Record{
				rec("BenchmarkMatch/islip/n=512", 119_000, 3, 0),
				rec("BenchmarkMatch/tdma/n=16", 64, 0, 0),
				rec("BenchmarkFrameDecompose/n=16", 99_000, -1, -1),
			},
		},
		{
			name: "baseline entry missing from the run fails",
			current: []Record{
				rec("BenchmarkMatch/islip/n=512", 100_000, 3, 0),
				rec("BenchmarkFrameDecompose/n=16", 99_000, -1, -1),
			},
			want: []string{"missing from this run"},
		},
		{
			name: "run without -benchmem columns fails the alloc contract",
			current: []Record{
				rec("BenchmarkMatch/islip/n=512", 100_000, -1, -1),
				rec("BenchmarkMatch/tdma/n=16", 64, -1, -1),
				rec("BenchmarkFrameDecompose/n=16", 99_000, -1, -1),
			},
			want: []string{"-benchmem missing", "-benchmem missing"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			violations, _ := compare(baseline, tc.current, 0.20, 64, nil)
			if len(violations) != len(tc.want) {
				t.Fatalf("violations = %v, want %d matching %v", violations, len(tc.want), tc.want)
			}
			for i, sub := range tc.want {
				if !strings.Contains(violations[i], sub) {
					t.Errorf("violation %d = %q, want substring %q", i, violations[i], sub)
				}
			}
		})
	}
}

func TestCompareMedianNormalization(t *testing.T) {
	// Ten entries: enough shared ratios to trust the median.
	var baseline, uniform, outlier []Record
	for i := 0; i < 10; i++ {
		name := "BenchmarkN/" + string(rune('a'+i))
		ns := float64(1000 * (i + 1))
		baseline = append(baseline, rec(name, ns, 0, 0))
		// The whole suite 35% slower: machine drift, not a regression.
		uniform = append(uniform, rec(name, ns*1.35, 0, 0))
		// Same drift, but one entry slowed 2.2x: a genuine outlier.
		f := 1.35
		if i == 3 {
			f = 2.2
		}
		outlier = append(outlier, rec(name, ns*f, 0, 0))
	}
	violations, notes := compare(baseline, uniform, 0.20, 64, nil)
	if len(violations) != 0 {
		t.Fatalf("uniform machine drift gated as a regression: %v", violations)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "normalized") {
		t.Fatalf("notes = %v, want one announcing normalization", notes)
	}
	violations, _ = compare(baseline, outlier, 0.20, 64, nil)
	if len(violations) != 1 || !strings.Contains(violations[0], "BenchmarkN/d") {
		t.Fatalf("violations = %v, want exactly the BenchmarkN/d outlier", violations)
	}
	// A uniformly faster machine must not mask a regression: everything
	// 40% faster except one entry back at its baseline speed — that
	// entry regressed 1/0.6 = 1.67x relative to the suite.
	var masked []Record
	for i, b := range baseline {
		ns := b.NsOp * 0.6
		if i == 7 {
			ns = b.NsOp
		}
		masked = append(masked, rec(b.Name, ns, 0, 0))
	}
	violations, _ = compare(baseline, masked, 0.20, 64, nil)
	if len(violations) != 1 || !strings.Contains(violations[0], "BenchmarkN/h") {
		t.Fatalf("violations = %v, want exactly the masked BenchmarkN/h regression", violations)
	}
}

// TestCompareRetired covers the deliberate-retirement path: baseline
// entries matching a -retired pattern may be absent from the run without
// failing the gate (they downgrade to notes), unmatched absences still
// fail, patterns ending in '*' retire whole benchmark families, and a
// retired benchmark that is still present stays under the normal
// contract.
func TestCompareRetired(t *testing.T) {
	baseline := []Record{
		rec("BenchmarkMatch/rrm/n=16", 1_000, 0, 0),
		rec("BenchmarkMatch/rrm/n=128", 9_000, 0, 0),
		rec("BenchmarkMatch/islip/n=512", 100_000, 0, 0),
		rec("BenchmarkOld", 50, 0, 0),
	}
	current := []Record{
		rec("BenchmarkMatch/islip/n=512", 100_000, 0, 0),
	}

	// Without allowances: three absences, three violations.
	violations, _ := compare(baseline, current, 0.20, 64, nil)
	if len(violations) != 3 {
		t.Fatalf("violations = %v, want 3 missing-entry failures", violations)
	}

	// Exact name + family prefix retire all three; the gate passes and
	// each retirement is reported as a note.
	retired := []string{"BenchmarkMatch/rrm/*", "BenchmarkOld"}
	violations, notes := compare(baseline, current, 0.20, 64, retired)
	if len(violations) != 0 {
		t.Fatalf("violations = %v, want none with retirements in place", violations)
	}
	var retiredNotes int
	for _, n := range notes {
		if strings.Contains(n, "retired") {
			retiredNotes++
		}
	}
	if retiredNotes != 3 {
		t.Fatalf("notes = %v, want 3 retirement notes", notes)
	}

	// A partial allowance leaves the unmatched absence failing.
	violations, _ = compare(baseline, current, 0.20, 64, []string{"BenchmarkOld"})
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want the two rrm absences to still fail", violations)
	}

	// Retirement is not an exemption: a retired-but-present benchmark
	// stays under the normal regression contract.
	present := []Record{
		rec("BenchmarkMatch/rrm/n=16", 1_000, 0, 5),
		rec("BenchmarkMatch/rrm/n=128", 9_000, 0, 0),
		rec("BenchmarkMatch/islip/n=512", 100_000, 0, 0),
		rec("BenchmarkOld", 50, 0, 0),
	}
	violations, _ = compare(baseline, present, 0.20, 64, []string{"BenchmarkMatch/rrm/*"})
	if len(violations) != 1 || !strings.Contains(violations[0], "allocs/op 0 -> 5") {
		t.Fatalf("violations = %v, want the alloc regression on the present rrm benchmark", violations)
	}
}

func TestRetiredMatch(t *testing.T) {
	retired := []string{"BenchmarkA", "BenchmarkMatch/rrm/*", ""}
	for name, want := range map[string]bool{
		"BenchmarkA":              true,
		"BenchmarkA/sub":          false,
		"BenchmarkMatch/rrm/n=16": true,
		"BenchmarkMatch/rrm":      false,
		"BenchmarkMatch/islip":    false,
		"":                        false,
	} {
		if got := retiredMatch(retired, name); got != want {
			t.Errorf("retiredMatch(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestSplitRetired(t *testing.T) {
	if got := splitRetired(""); got != nil {
		t.Fatalf("splitRetired(\"\") = %v, want nil", got)
	}
	got := splitRetired(" BenchmarkA , ,BenchmarkB/* ")
	if len(got) != 2 || got[0] != "BenchmarkA" || got[1] != "BenchmarkB/*" {
		t.Fatalf("splitRetired = %v", got)
	}
}

func TestCompareNewBenchmarkIsANote(t *testing.T) {
	baseline := []Record{rec("BenchmarkOld", 100, 0, 0)}
	current := []Record{
		rec("BenchmarkOld", 100, 0, 0),
		rec("BenchmarkNew", 5, 0, 0),
	}
	violations, notes := compare(baseline, current, 0.20, 64, nil)
	if len(violations) != 0 {
		t.Fatalf("new benchmark counted as a violation: %v", violations)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "BenchmarkNew") {
		t.Fatalf("notes = %v, want one mentioning BenchmarkNew", notes)
	}
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	writeFile(t, good, `[{"name":"BenchmarkX","ns_op":12.5,"b_op":0,"allocs_op":0}]`)
	// The pre-stamp form, a bare array, still loads — unstamped.
	l, err := loadBaseline(good)
	if err != nil {
		t.Fatal(err)
	}
	if recs := l.Benchmarks; len(recs) != 1 || recs[0].Name != "BenchmarkX" || recs[0].NsOp != 12.5 || l.Env != (Env{}) {
		t.Fatalf("ledger = %+v", l)
	}
	stamped := filepath.Join(dir, "stamped.json")
	writeFile(t, stamped, `{"env":{"cpu":"Xeon @ 2.10GHz","gomaxprocs":2,"go":"go1.24.0"},
		"benchmarks":[{"name":"BenchmarkX","ns_op":12.5,"b_op":0,"allocs_op":0}]}`)
	l, err = loadBaseline(stamped)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Env{"Xeon @ 2.10GHz", 2, "go1.24.0"}); l.Env != want || len(l.Benchmarks) != 1 || l.Benchmarks[0].NsOp != 12.5 {
		t.Fatalf("ledger = %+v", l)
	}
	bad := filepath.Join(dir, "bad.json")
	writeFile(t, bad, `{not json`)
	if _, err := loadBaseline(bad); err == nil {
		t.Fatal("malformed baseline accepted")
	}
	if _, err := loadBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
