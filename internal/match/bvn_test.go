package match

import (
	"testing"
	"testing/quick"

	"hybridsched/internal/demand"
	"hybridsched/internal/rng"
)

// applySlots replays a schedule onto a zero matrix, accumulating what each
// (i, j) pair is served.
func applySlots(n int, slots []Slot) *demand.Matrix {
	served := demand.NewMatrix(n)
	for _, s := range slots {
		for i, j := range s.Match {
			if j != Unmatched {
				served.Add(i, j, s.Weight)
			}
		}
	}
	return served
}

func TestBvNServesEntireMatrix(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(5)
		d := randMatrix(r, n, 0.5, 50)
		slots := DecomposeBvN(d)
		served := applySlots(n, slots)
		// Every real demand entry must be fully covered.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if served.At(i, j) < d.At(i, j) {
					return false
				}
			}
		}
		// Every slot must be a perfect matching with positive weight.
		for _, s := range slots {
			if s.Match.Size() != n || s.Weight <= 0 {
				return false
			}
			if s.Match.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBvNAchievesMakespanBound(t *testing.T) {
	// Sum of slot weights must equal MaxLineSum exactly: BvN is optimal
	// when reconfiguration is free.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(5)
		d := randMatrix(r, n, 0.6, 50)
		if d.Total() == 0 {
			return len(DecomposeBvN(d)) == 0
		}
		slots := DecomposeBvN(d)
		var sum int64
		for _, s := range slots {
			sum += s.Weight
		}
		return sum == d.MaxLineSum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBvNSlotCountBound(t *testing.T) {
	r := rng.New(77)
	n := 6
	for trial := 0; trial < 20; trial++ {
		d := randMatrix(r, n, 0.8, 100)
		slots := DecomposeBvN(d)
		bound := n*n - 2*n + 2
		if len(slots) > bound {
			t.Fatalf("BvN used %d slots, theory bound %d", len(slots), bound)
		}
	}
}

func TestBvNZeroMatrix(t *testing.T) {
	if slots := DecomposeBvN(demand.NewMatrix(4)); len(slots) != 0 {
		t.Fatalf("zero matrix should yield empty schedule, got %d slots", len(slots))
	}
}

func TestMaxMinUsesFewerSlotsOnSkewedDemand(t *testing.T) {
	// A permutation-heavy matrix plus noise: max-min should find the big
	// permutation immediately, BvN may shred it.
	n := 8
	d := demand.NewMatrix(n)
	for i := 0; i < n; i++ {
		d.Set(i, (i+1)%n, 1000)
	}
	d.Set(0, 2, 3)
	d.Set(3, 5, 2)
	slots, residual := DecomposeMaxMin(d, 10)
	if len(slots) == 0 {
		t.Fatal("no slots extracted")
	}
	// First slot should be the heavy permutation at weight >= 997
	// (stuffing can slightly shave the min along the matching).
	if slots[0].Weight < 900 {
		t.Fatalf("first slot weight %d; max-min should grab the elephant", slots[0].Weight)
	}
	// Residue (the small flows) goes to the EPS.
	if residual.Total() > 5 {
		t.Fatalf("residual too large: %d", residual.Total())
	}
}

func TestMaxMinResidualNeverNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(5)
		d := randMatrix(r, n, 0.5, 200)
		slots, residual := DecomposeMaxMin(d, int64(1+r.Intn(50)))
		served := applySlots(n, slots)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if residual.At(i, j) < 0 {
					return false
				}
				// served + residual covers the original demand.
				if served.At(i, j)+residual.At(i, j) < d.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaxMinZeroThresholdServesEverything(t *testing.T) {
	r := rng.New(123)
	d := randMatrix(r, 5, 0.5, 100)
	_, residual := DecomposeMaxMin(d, 0)
	if residual.Total() != 0 {
		t.Fatalf("with no worth threshold the residual must be empty, got %d",
			residual.Total())
	}
}

func TestKuhnPerfectFindsKnownMatching(t *testing.T) {
	d := demand.NewMatrix(3)
	// Only one perfect matching exists: 0->1, 1->2, 2->0.
	d.Set(0, 1, 5)
	d.Set(1, 2, 5)
	d.Set(2, 0, 5)
	d.Set(0, 0, 5) // distractor: using it blocks column 0 for input 2
	m, ok := newDecomposer(d.N()).perfect(d, 1)
	if !ok {
		t.Fatal("perfect matching exists but was not found")
	}
	if m[0] != 1 || m[1] != 2 || m[2] != 0 {
		t.Fatalf("m = %v", m)
	}
}

func TestKuhnPerfectInfeasible(t *testing.T) {
	d := demand.NewMatrix(2)
	d.Set(0, 0, 1)
	d.Set(1, 0, 1) // both inputs need column 0: infeasible
	if _, ok := newDecomposer(d.N()).perfect(d, 1); ok {
		t.Fatal("reported perfect matching where none exists")
	}
}

func TestKuhnThresholdRespected(t *testing.T) {
	d := demand.NewMatrix(2)
	d.Set(0, 0, 10)
	d.Set(0, 1, 1)
	d.Set(1, 0, 1)
	d.Set(1, 1, 10)
	m, ok := newDecomposer(d.N()).perfect(d, 5)
	if !ok {
		t.Fatal("diagonal matching at threshold 5 exists")
	}
	if m[0] != 0 || m[1] != 1 {
		t.Fatalf("m = %v", m)
	}
	if _, ok := newDecomposer(d.N()).perfect(d, 11); ok {
		t.Fatal("threshold 11 should be infeasible")
	}
}

func TestBestThreshold(t *testing.T) {
	d := demand.NewMatrix(2)
	d.Set(0, 0, 10)
	d.Set(1, 1, 7)
	d.Set(0, 1, 100)
	d.Set(1, 0, 100)
	// Perfect matchings: diag (min 7) or anti-diag (min 100).
	if thr := newDecomposer(d.N()).bestThreshold(d); thr != 100 {
		t.Fatalf("bestThreshold = %d, want 100", thr)
	}
}
