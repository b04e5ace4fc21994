package match

import (
	"slices"

	"hybridsched/internal/demand"
)

// This file preserves the pre-bitset frame-decomposition implementation —
// the recursive, element-walking Kuhn search and the allocating
// DecomposeBvN/DecomposeMaxMin loops — as the sparse-list reference for
// the three-way decomposition equivalence suite, exactly as
// sparse_ref_test.go preserves the per-slot arbiters. The live engine
// (decompose.go) runs the augmenting search word-parallel over bitset
// rows with an explicit stack, recycled arenas and a memoized replay; this
// reference pins that none of it changed a single extracted matching.

// sparseDecomposer is the preserved recursive element-walk Kuhn scratch.
type sparseDecomposer struct {
	matchCol []int32
	visited  []bool
	vals     []int64
}

func newSparseDecomposer(n int) *sparseDecomposer {
	return &sparseDecomposer{
		matchCol: make([]int32, n),
		visited:  make([]bool, n),
	}
}

// perfect is the recursive reference: candidate columns visited in
// ascending nonzero-entry order, visited checked per iteration.
func (dc *sparseDecomposer) perfect(d *demand.Matrix, thr int64) (Matching, bool) {
	n := d.N()
	for j := 0; j < n; j++ {
		dc.matchCol[j] = -1
	}
	var try func(i int) bool
	try = func(i int) bool {
		row := d.Row(i)
		for k := 0; k < row.Len(); k++ {
			j, v := row.Entry(k)
			if dc.visited[j] || v < thr {
				continue
			}
			dc.visited[j] = true
			if dc.matchCol[j] < 0 || try(int(dc.matchCol[j])) {
				dc.matchCol[j] = int32(i)
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		for j := range dc.visited {
			dc.visited[j] = false
		}
		if !try(i) {
			return nil, false
		}
	}
	m := NewMatching(n)
	for j, i := range dc.matchCol {
		m[i] = j
	}
	return m, true
}

func (dc *sparseDecomposer) bestThreshold(work *demand.Matrix) int64 {
	n := work.N()
	vals := dc.vals[:0]
	for i := 0; i < n; i++ {
		row := work.Row(i)
		for k := 0; k < row.Len(); k++ {
			_, v := row.Entry(k)
			vals = append(vals, v)
		}
	}
	dc.vals = vals
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	vals = dedup(vals)
	lo, hi := 0, len(vals)-1
	best := int64(0)
	for lo <= hi {
		mid := (lo + hi) / 2
		if _, ok := dc.perfect(work, vals[mid]); ok {
			best = vals[mid]
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}

// sparseDecomposeBvN is the preserved allocating BvN loop.
func sparseDecomposeBvN(d *demand.Matrix) []Slot {
	work := d.Stuff()
	dc := newSparseDecomposer(d.N())
	var slots []Slot
	for work.Total() > 0 {
		m, ok := dc.perfect(work, 1)
		if !ok {
			panic("match: stuffed matrix lost perfect matching (sparse ref)")
		}
		w := minAlong(work, m)
		subtract(work, m, w)
		slots = append(slots, Slot{Match: m, Weight: w})
	}
	work.Release()
	return slots
}

// sparseDecomposeMaxMin is the preserved allocating max-min loop.
func sparseDecomposeMaxMin(d *demand.Matrix, minWorth int64) (slots []Slot, residual *demand.Matrix) {
	work := d.Stuff()
	served := demand.FromPool(d.N())
	dc := newSparseDecomposer(d.N())
	for work.Total() > 0 {
		thr := dc.bestThreshold(work)
		if thr <= 0 {
			break
		}
		m, ok := dc.perfect(work, thr)
		if !ok {
			panic("match: threshold search returned infeasible threshold (sparse ref)")
		}
		w := minAlong(work, m)
		if minWorth > 0 && w < minWorth {
			break
		}
		subtract(work, m, w)
		for i, j := range m {
			if j != Unmatched {
				served.Add(i, j, w)
			}
		}
		slots = append(slots, Slot{Match: m, Weight: w})
	}
	residual = demand.FromPool(d.N())
	for i := 0; i < d.N(); i++ {
		row := d.Row(i)
		for k := 0; k < row.Len(); k++ {
			j, v := row.Entry(k)
			if rem := v - served.At(i, j); rem > 0 {
				residual.Set(i, j, rem)
			}
		}
	}
	work.Release()
	served.Release()
	return slots, residual
}
