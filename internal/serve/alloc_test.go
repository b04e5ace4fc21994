//go:build !race

package serve

import (
	"testing"

	"hybridsched/internal/metrics"
)

// TestServeEpochAllocFree pins the acceptance bar directly: with no
// subscribers, one epoch of the online loop — offer refill, snapshot
// boundary, per-slot arbiter schedule, demand drain — performs zero heap
// allocations at n=128 in steady state, and full instrumentation
// (epoch-latency and snapshot histograms, throughput counters, backlog
// gauge) does not change that. Both boundaries are covered: the copy
// shape re-offers every cell each epoch, which overflows the journal;
// the replay shape offers to n/4 of the ports over a standing backlog,
// so the journal is short against the matrix's nonzeros — and ilqf, the
// arbiter with the incremental face, schedules those epochs from the
// change list. (Excluded under -race: the detector instruments
// allocations.)
func TestServeEpochAllocFree(t *testing.T) {
	const n = 128
	for _, tc := range []struct {
		name     string
		registry *metrics.Registry
	}{
		{"bare", nil},
		{"instrumented", metrics.NewRegistry()},
	} {
		for _, shape := range []struct {
			name    string
			sources int   // ports offering each epoch
			bits    int64 // per offer; the copy shape drains a cell per slot, the replay shape keeps a backlog
			full    bool  // the boundary the steady state must take
		}{
			{"copy", n, 1500 * 8, true},
			{"replay", n / 4, 4 * 1500 * 8, false},
		} {
			t.Run(tc.name+"/"+shape.name, func(t *testing.T) {
				for _, alg := range []string{"islip", "greedy", "tdma", "ilqf"} {
					s, err := New(Config{Ports: n, Algorithm: alg, SlotBits: 1500 * 8, Metrics: tc.registry})
					if err != nil {
						t.Fatal(err)
					}
					offer := func(sources int) {
						for i := 0; i < sources; i++ {
							for k := 1; k <= 8; k++ {
								s.Offer(i, (i+k*7)%n, shape.bits)
							}
						}
					}
					// Warm the pooled matrices, row index lists and arbiter
					// scratch, and leave every cell with a backlog.
					for w := 0; w < 3; w++ {
						offer(n)
						if _, err := s.Step(); err != nil {
							t.Fatal(err)
						}
					}
					var before, deltaBefore uint64
					if s.ins != nil {
						before, deltaBefore = s.ins.snapshotsFull.Value(), s.ins.schedulesDelta.Value()
					}
					const runs = 50
					allocs := testing.AllocsPerRun(runs, func() {
						offer(shape.sources)
						if _, err := s.Step(); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 0 {
						t.Errorf("%s: %v allocs per epoch, want 0", alg, allocs)
					}
					// The bare runs take the same boundaries: the choice
					// reads only the journal and the matrix.
					if s.ins != nil {
						want := uint64(0)
						if shape.full {
							want = runs + 1 // AllocsPerRun adds a warm-up call
						}
						if got := s.ins.snapshotsFull.Value() - before; got != want {
							t.Errorf("%s: %d boundaries copied in full, want %d", alg, got, want)
						}
						wantDelta := uint64(0)
						if alg == "ilqf" {
							wantDelta = runs + 1 - want
						}
						if got := s.ins.schedulesDelta.Value() - deltaBefore; got != wantDelta {
							t.Errorf("%s: %d epochs scheduled from the change list, want %d", alg, got, wantDelta)
						}
					}
					s.Close()
				}
			})
		}
	}
}
