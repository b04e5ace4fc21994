package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: hybridsched
cpu: Intel(R) Xeon(R) CPU @ 2.60GHz
BenchmarkMatch/islip/n=128-8         	    2308	    105696 ns/op	    6358 B/op	       6 allocs/op
BenchmarkMatch/tdma/n=16-8           	 2708622	        80.39 ns/op	     128 B/op	       1 allocs/op
BenchmarkFrameDecompose/n=16-8      	    2379	     99344 ns/op
PASS
ok  	hybridsched	8.033s
`
	recs, env, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Env{CPU: "Intel(R) Xeon(R) CPU @ 2.60GHz", GOMAXPROCS: 8}); env != want {
		t.Fatalf("env = %+v, want %+v", env, want)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(recs), recs)
	}
	r := recs[0]
	if r.Name != "BenchmarkMatch/islip/n=128" || r.NsOp != 105696 || r.BOp != 6358 || r.AllocsOp != 6 {
		t.Fatalf("record 0 = %+v", r)
	}
	if recs[1].NsOp != 80.39 {
		t.Fatalf("fractional ns/op lost: %+v", recs[1])
	}
	// No -benchmem columns: sentinel -1, ns/op still captured.
	if recs[2].BOp != -1 || recs[2].AllocsOp != -1 || recs[2].NsOp != 99344 {
		t.Fatalf("record 2 = %+v", recs[2])
	}
}

func TestCollapseRepetitions(t *testing.T) {
	recs := []Record{
		{Name: "BenchmarkA", NsOp: 120, BOp: 16, AllocsOp: 1},
		{Name: "BenchmarkB", NsOp: 50, BOp: -1, AllocsOp: -1},
		{Name: "BenchmarkA", NsOp: 100, BOp: 24, AllocsOp: 1},
		{Name: "BenchmarkB", NsOp: 60, BOp: 8, AllocsOp: 0},
		{Name: "BenchmarkA", NsOp: 110, BOp: 16, AllocsOp: 1},
	}
	got := collapse(recs)
	if len(got) != 2 {
		t.Fatalf("collapsed to %d records, want 2: %+v", len(got), got)
	}
	// First-seen order, per-metric minimum.
	if got[0].Name != "BenchmarkA" || got[0].NsOp != 100 || got[0].BOp != 16 || got[0].AllocsOp != 1 {
		t.Fatalf("record A = %+v", got[0])
	}
	// A repetition with real columns beats the -1 sentinel.
	if got[1].Name != "BenchmarkB" || got[1].NsOp != 50 || got[1].BOp != 8 || got[1].AllocsOp != 0 {
		t.Fatalf("record B = %+v", got[1])
	}
}

func TestTrimProcSuffix(t *testing.T) {
	type split struct {
		name  string
		procs int
	}
	for in, want := range map[string]split{
		"BenchmarkMatch/islip/n=128-8": {"BenchmarkMatch/islip/n=128", 8},
		"BenchmarkFoo-16":              {"BenchmarkFoo", 16},
		"BenchmarkBare":                {"BenchmarkBare", 1},
	} {
		if name, procs := splitProcSuffix(in); name != want.name || procs != want.procs {
			t.Fatalf("splitProcSuffix(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

// TestEnvNote: the stamp is a note, printed only when the two sides
// differ, naming both — and "unstamped" for a baseline that predates it.
func TestEnvNote(t *testing.T) {
	fast := Env{CPU: "Xeon @ 2.60GHz", GOMAXPROCS: 2, Go: "go1.24.0"}
	slow := Env{CPU: "Xeon @ 2.10GHz", GOMAXPROCS: 2, Go: "go1.24.0"}
	if n := envNote(fast, fast); n != "" {
		t.Fatalf("same stamp noted: %q", n)
	}
	if n := envNote(fast, slow); !strings.Contains(n, "2.60GHz") || !strings.Contains(n, "2.10GHz") {
		t.Fatalf("note %q does not name both hosts", n)
	}
	if n := envNote(Env{}, slow); !strings.Contains(n, "unstamped") || !strings.Contains(n, "2.10GHz") {
		t.Fatalf("note %q for a pre-stamp baseline", n)
	}
}
