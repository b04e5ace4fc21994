package match

import (
	"hybridsched/internal/demand"
)

// Slot is one entry of a circuit schedule: hold Match for long enough to
// serve Weight demand units on every matched pair.
type Slot struct {
	Match  Matching
	Weight int64
}

// DecomposeBvN performs a Birkhoff–von Neumann decomposition of d; see
// Decomposer.BvN for the algorithm. This package-level form borrows a
// pooled engine (recycling Kuhn scratch and the stuffed working matrix
// across calls) and returns caller-owned slots. Epoch-over-epoch callers
// should hold a Decomposer instead and get allocation-free steady state.
func DecomposeBvN(d *demand.Matrix) []Slot {
	dc := decomposerFor(d.N())
	slots := cloneSlots(dc.BvN(d), d.N())
	dc.release()
	return slots
}

// DecomposeMaxMin is the reconfiguration-aware max-min decomposition of
// d; see Decomposer.MaxMin for the algorithm. Like DecomposeBvN it runs
// on a pooled engine. The returned residual — the demand the slots leave
// unserved — is the caller's; Release recycles it.
func DecomposeMaxMin(d *demand.Matrix, minWorth int64) (slots []Slot, residual *demand.Matrix) {
	dc := decomposerFor(d.N())
	slots = cloneSlots(dc.MaxMin(d, minWorth), d.N())
	residual = dc.residual(d)
	dc.release()
	return slots, residual
}

func dedup(v []int64) []int64 {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

//hybridsched:hotpath
func minAlong(d *demand.Matrix, m Matching) int64 {
	var w int64 = -1
	for i, j := range m {
		if j == Unmatched {
			continue
		}
		if v := d.At(i, j); w < 0 || v < w {
			w = v
		}
	}
	if w < 0 {
		return 0
	}
	return w
}

func subtract(d *demand.Matrix, m Matching, w int64) {
	for i, j := range m {
		if j != Unmatched {
			d.Add(i, j, -w)
		}
	}
}
