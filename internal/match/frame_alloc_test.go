//go:build !race

// The race detector makes sync.Pool drop items at random, so the pooled
// matrices this test counts on would allocate under -race.

package match

import (
	"testing"

	"hybridsched/internal/rng"
)

// TestFrameSchedulerSteadyStateAllocs pins the refill boundary's promise:
// once warm, a frame scheduler driven through repeated full frames —
// including the decompositions themselves, over alternating demand —
// allocates nothing.
func TestFrameSchedulerSteadyStateAllocs(t *testing.T) {
	for _, name := range []string{"bvn", "maxmin"} {
		n := 32
		r := rng.New(uint64(len(name)))
		alg, _ := New(name, n, 1)
		f := alg.(*FrameScheduler)
		a := sparseFrameDemand(r, n, 4, 100)
		b := sparseFrameDemand(r, n, 4, 100)
		// Warm up: both inputs, all arenas at final cap.
		for i := 0; i < 8*maxPlayback; i++ {
			if i%maxPlayback == 0 && (i/maxPlayback)%2 == 1 {
				a, b = b, a
			}
			f.Schedule(a)
		}
		per := testing.AllocsPerRun(3, func() {
			for i := 0; i < 2*maxPlayback; i++ {
				f.Schedule(a)
			}
			a, b = b, a
		})
		if per != 0 {
			t.Errorf("%s-frame steady state allocates %.1f allocs per double frame, want 0", name, per)
		}
	}
}
