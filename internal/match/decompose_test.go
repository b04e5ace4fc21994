package match

import (
	"fmt"
	"slices"
	"testing"

	"hybridsched/internal/demand"
	"hybridsched/internal/rng"
)

// Tests for the frame-decomposition engine (decompose.go): lineage
// equivalence against the preserved sparse and dense references, and the
// contract that a retained engine (and a Reset frame scheduler) equals a
// fresh one. The steady-state allocation pin is in frame_alloc_test.go.

// slotsEqual fails the test unless the two slot sequences match exactly
// — same length, same matchings, same weights, in order.
func slotsEqual(t *testing.T, label string, got, want []Slot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slots, want %d", label, len(got), len(want))
	}
	for k := range got {
		if !got[k].Match.Equal(want[k].Match) || got[k].Weight != want[k].Weight {
			t.Fatalf("%s: slot %d = (%v, %d), want (%v, %d)",
				label, k, got[k].Match, got[k].Weight, want[k].Match, want[k].Weight)
		}
	}
}

func matricesEqual(t *testing.T, label string, got, want *demand.Matrix) {
	t.Helper()
	n := got.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: (%d,%d) = %d, want %d", label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// sparseFrameDemand builds the controlled-sparsity demand the larger
// equivalence sizes use: k random peers per port, values in [1, maxV].
func sparseFrameDemand(r *rng.Rand, n, k int, maxV int64) *demand.Matrix {
	d := demand.NewMatrix(n)
	for i := 0; i < n; i++ {
		for p := 0; p < k; p++ {
			j := r.Intn(n)
			if j == i {
				continue
			}
			d.Set(i, j, 1+r.Int63n(maxV))
		}
	}
	return d
}

// TestThreeWayDecompositionEquivalence locks the decomposition lineage
// together at and beyond the word boundary: the live bitset engine, the
// preserved sparse-list recursion (sparse_decompose_ref_test.go) and —
// where it is affordable — the dense O(n²)-scan reference must produce
// identical slot sequences and residuals. n=64 runs the one-word kernel,
// n=128 the two-word specialization, n=256 the generic multi-word path.
func TestThreeWayDecompositionEquivalence(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		r := rng.New(uint64(n)*313 + 7)
		rounds := 3
		if n >= 256 {
			rounds = 1
		}
		for round := 0; round < rounds; round++ {
			d := sparseFrameDemand(r, n, 4, 60)
			if d.Total() == 0 {
				continue
			}
			label := fmt.Sprintf("bvn n=%d round=%d", n, round)
			got := DecomposeBvN(d)
			slotsEqual(t, label+" vs sparse", got, sparseDecomposeBvN(d))
			if n <= 64 {
				slotsEqual(t, label+" vs dense", got, denseDecomposeBvN(d))
			}

			minWorth := d.MaxLineSum() / 16
			label = fmt.Sprintf("maxmin n=%d round=%d", n, round)
			gotSlots, gotRes := DecomposeMaxMin(d, minWorth)
			spSlots, spRes := sparseDecomposeMaxMin(d, minWorth)
			slotsEqual(t, label+" vs sparse", gotSlots, spSlots)
			matricesEqual(t, label+" residual", gotRes, spRes)
			if n <= 64 {
				deSlots, deRes := denseDecomposeMaxMin(d, minWorth)
				slotsEqual(t, label+" vs dense", gotSlots, deSlots)
				matricesEqual(t, label+" dense residual", gotRes, deRes)
				deRes.Release()
			}
			gotRes.Release()
			spRes.Release()
		}
	}
}

// mutateDemand applies a randomized epoch-over-epoch delta to d: with
// probability ~1/4 it changes nothing (the engine sees the same input
// twice), otherwise it scales a few existing entries (value-only changes
// keep the stuffed support) and occasionally adds or removes a cell
// (structural changes).
func mutateDemand(r *rng.Rand, d *demand.Matrix) {
	switch r.Intn(4) {
	case 0:
		return
	case 1:
		// Value-only: scale a handful of existing entries.
		for t := 0; t < 3; t++ {
			i := r.Intn(d.N())
			row := d.Row(i)
			if row.Len() == 0 {
				continue
			}
			j, v := row.Entry(r.Intn(row.Len()))
			d.Set(i, j, 1+(v*int64(1+r.Intn(3)))/2)
		}
	case 2:
		// Structural: add a cell.
		i, j := r.Intn(d.N()), r.Intn(d.N())
		if i != j {
			d.Set(i, j, 1+r.Int63n(1000))
		}
	default:
		// Structural: remove a cell.
		i := r.Intn(d.N())
		row := d.Row(i)
		if row.Len() > 0 {
			j, _ := row.Entry(r.Intn(row.Len()))
			d.Set(i, j, 0)
		}
	}
}

// TestWarmColdEquivalence: a retained engine equals a fresh one. A
// Decomposer retained across a trajectory of mutating demand matrices
// must produce, at every epoch, exactly the slots (and residual) a
// freshly constructed engine produces for that epoch's input alone — bit
// for bit, so no recycled memo, mask, arena or pooled matrix carries
// anything over from the previous decomposition.
func TestWarmColdEquivalence(t *testing.T) {
	for _, n := range []int{16, 64, 128} {
		for _, maxmin := range []bool{false, true} {
			r := rng.New(uint64(n)*501 + 11)
			warm := newDecomposer(n)
			d := sparseFrameDemand(r, n, 5, 200)
			for epoch := 0; epoch < 12; epoch++ {
				label := fmt.Sprintf("n=%d maxmin=%v epoch=%d", n, maxmin, epoch)
				cold := newDecomposer(n)
				if maxmin {
					minWorth := d.MaxLineSum() / 16
					slotsEqual(t, label, warm.MaxMin(d, minWorth), cold.MaxMin(d, minWorth))
					matricesEqual(t, label+" residual", warm.residual(d), cold.residual(d))
				} else {
					slotsEqual(t, label, warm.BvN(d), cold.BvN(d))
				}
				mutateDemand(r, d)
			}
		}
	}
}

// TestFrameSchedulerResetEquivalence: a frame scheduler Reset mid-
// trajectory must emit exactly what a freshly built one emits from that
// point on, across frame boundaries, demand shifts and a drain to zero
// demand — Reset may leave no playback or engine state behind.
func TestFrameSchedulerResetEquivalence(t *testing.T) {
	for _, name := range []string{"bvn", "maxmin"} {
		n := 64
		r := rng.New(991)
		used, _ := New(name, n, 1)
		fresh, _ := New(name, n, 1)

		d := sparseFrameDemand(r, n, 5, 300)
		zero := demand.NewMatrix(n)
		for step := 0; step < 400; step++ {
			in := d
			if step >= 140 && step <= 140+maxPlayback {
				// Drain: long enough for any frame's playback to run out,
				// so a refill finds zero demand.
				in = zero
			}
			got := used.Schedule(in).Clone()
			want := fresh.Schedule(in)
			if !got.Equal(want) {
				t.Fatalf("%s step %d: reset scheduler %v != fresh %v", name, step, got, want)
			}
			// Shift demand mid-playback sometimes, between frames other
			// times.
			if step%37 == 0 {
				mutateDemand(r, d)
			}
			if step == 211 {
				used.Reset()
				fresh, _ = New(name, n, 1)
			}
		}
		if u, f := used.(*FrameScheduler).Frames(), fresh.(*FrameScheduler).Frames(); u != f {
			t.Fatalf("%s: reset scheduler computed %d frames since Reset, fresh %d", name, u, f)
		}
	}
}

// FuzzWarmStartRepair checks that a retained engine equals a fresh one
// under fuzzed demand deltas: decompose a base matrix, apply an arbitrary
// mutation sequence, decompose again on the same engine, and require
// bit-for-bit agreement with a fresh engine seeing only the final matrix.
// The fuzzer hunts for inputs where recycled scratch (the extraction
// memo, the candidate masks, the arenas, the served matrix) would leak
// state from one decomposition into the next.
func FuzzWarmStartRepair(f *testing.F) {
	f.Add(uint64(1), []byte{0x10, 0x82, 0x3f})
	f.Add(uint64(7), []byte{0x00, 0x00, 0xff, 0x41, 0x07, 0x30})
	f.Add(uint64(42), []byte{0x91, 0x22, 0x13, 0x84, 0x75, 0x66, 0x57, 0x48})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		n := 16
		r := rng.New(seed)
		d := sparseFrameDemand(r, n, 4, 40)
		warm := newDecomposer(n)
		warm.BvN(d)
		warmMM := newDecomposer(n)
		warmMM.MaxMin(d, d.MaxLineSum()/16)

		// Interpret each op byte as one cell edit: high nibble picks the
		// cell (wrapping), low nibble the new value (0 removes).
		for _, op := range ops {
			i := int(op>>4) % n
			j := int(op) % n
			if i == j {
				continue
			}
			d.Set(i, j, int64(op&0x0f))
		}

		cold := newDecomposer(n)
		got, want := warm.BvN(d), cold.BvN(d)
		slotsEqual(t, "bvn warm repair", got, want)

		coldMM := newDecomposer(n)
		minWorth := d.MaxLineSum() / 16
		slotsEqual(t, "maxmin warm repair", warmMM.MaxMin(d, minWorth), coldMM.MaxMin(d, minWorth))
		matricesEqual(t, "maxmin warm residual", warmMM.residual(d), coldMM.residual(d))
	})
}

// TestGreedyRadixMatchesComparator pins the greedy arbiter's radix sort
// against the comparator order at fabric scale, where the radix path is
// the one that runs: identical matchings, including heavy tie regimes
// (quantized weights) that stress the stability-as-tie-break argument.
func TestGreedyRadixMatchesComparator(t *testing.T) {
	for _, n := range []int{128, 512, 2048} {
		for _, quantize := range []int64{0, 64} {
			r := rng.New(uint64(n) + uint64(quantize)*17)
			g := NewGreedy(n)
			for round := 0; round < 3; round++ {
				d := sparseFrameDemand(r, n, 8, 100_000)
				if quantize > 0 {
					// Collapse weights onto a few values so ties dominate.
					for i := 0; i < n; i++ {
						row := d.Row(i)
						for k := 0; k < row.Len(); k++ {
							j, v := row.Entry(k)
							d.Set(i, j, 1+(v/quantize)*quantize)
						}
					}
				}
				got := g.Schedule(d).Clone()

				// Comparator reference: same collection, comparison sort,
				// same selection.
				var edges []greedyEdge
				for i := 0; i < n; i++ {
					row := d.Row(i)
					for k := 0; k < row.Len(); k++ {
						j, v := row.Entry(k)
						edges = append(edges, greedyEdge{v, i, j})
					}
				}
				slices.SortFunc(edges, compareGreedyEdges)
				want := NewMatching(n)
				for i := range want {
					want[i] = Unmatched
				}
				colUsed := make([]bool, n)
				for _, e := range edges {
					if want[e.i] == Unmatched && !colUsed[e.j] {
						want[e.i] = e.j
						colUsed[e.j] = true
					}
				}
				if !got.Equal(want) {
					t.Fatalf("n=%d quantize=%d round=%d: radix greedy diverges from comparator reference",
						n, quantize, round)
				}
			}
		}
	}
}
