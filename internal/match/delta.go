package match

import "hybridsched/internal/demand"

// Change is one entry of the change list an arbiter's ScheduleDelta
// takes: cell (In, Out) of the demand matrix now holds Value.
//
// ScheduleDelta(d, changed) is the optional incremental face of an
// Algorithm, for callers that keep one matrix up to date and know which
// cells they wrote (the serve epoch boundary replays exactly such a list).
// Its contract: d equals the matrix of this arbiter's previous Schedule or
// ScheduleDelta call except at the listed cells, each listed with its
// current value; duplicates and cells that did not change are allowed; the
// result is identical to Schedule(d). Any call may be the first, and
// Schedule and ScheduleDelta may be mixed freely — an arbiter that cannot
// vouch for its cached view rebuilds it from d.
type Change struct {
	In, Out int32
	Value   int64
}

// ilqfCand is one requester in an output's mirror list.
type ilqfCand struct {
	v  int64
	in int32
}

// before is iLQF's grant order: deeper first, ties on the lower input.
func (c ilqfCand) before(o ilqfCand) bool { return c.v > o.v || (c.v == o.v && c.in < o.in) }

// ilqfStride is the mirror's initial slots per output: the 8 peers per
// port the fabric-scale workloads present. It doubles when a column
// outgrows it.
const ilqfStride = 8

// ScheduleDelta is Schedule for a caller that lists the cells it changed
// (see Change). Every output's requesters are kept in grant order, so a
// grant is the first list entry whose input is not yet matched — no
// column scan, no dense lookups — and everything else is Schedule's own
// code (run). The lists are repaired from changed when they describe the
// previous call's matrix, and rebuilt from d otherwise.
//
//hybridsched:hotpath
func (l *ILQF) ScheduleDelta(d *demand.Matrix, changed []Change) Matching {
	if l.mirrored {
		for _, c := range changed {
			l.repair(c)
		}
	} else {
		l.rebuild(d)
	}
	return l.run(d)
}

// repair brings one cell of the mirror up to date: find the input in the
// output's list, then remove it, or write the new depth and let the entry
// bubble to its place; an input not yet listed is appended first.
//
//hybridsched:hotpath
func (l *ILQF) repair(c Change) {
	j := int(c.Out)
	col := l.mirror[j*l.stride:][:l.deg[j]]
	k := 0
	for k < len(col) && col[k].in != c.In {
		k++
	}
	switch {
	case c.Value <= 0:
		if k < len(col) {
			copy(col[k:], col[k+1:])
			l.deg[j]--
		}
		return
	case k == len(col):
		if k == l.stride {
			l.grow()
		}
		l.deg[j]++
		col = l.mirror[j*l.stride:][:k+1]
	}
	e := ilqfCand{c.Value, c.In}
	for ; k > 0 && e.before(col[k-1]); k-- {
		col[k] = col[k-1]
	}
	for ; k+1 < len(col) && col[k+1].before(e); k++ {
		col[k] = col[k+1]
	}
	col[k] = e
}

// grow doubles the slots per output, keeping every list.
//
//hybridsched:alloc-ok slab doubling, amortized over the run like append
func (l *ILQF) grow() {
	stride := 2 * l.stride
	mirror := make([]ilqfCand, l.n*stride)
	for j, deg := range l.deg {
		copy(mirror[j*stride:], l.mirror[j*l.stride:][:deg])
	}
	l.mirror, l.stride = mirror, stride
}

// rebuild fills the mirror from d: every nonzero cell goes through repair
// as an insertion. Rows ascend, so equal depths land in input order.
//
//hybridsched:alloc-ok the mirror is allocated once, by the first ScheduleDelta
func (l *ILQF) rebuild(d *demand.Matrix) {
	if l.mirror == nil {
		l.stride = ilqfStride
		l.mirror = make([]ilqfCand, l.n*l.stride)
		l.deg = make([]int32, l.n)
	}
	for j := range l.deg {
		l.deg[j] = 0
	}
	for i := 0; i < l.n; i++ {
		row := d.Row(i)
		for k := 0; k < row.Len(); k++ {
			j, v := row.Entry(k)
			l.repair(Change{In: int32(i), Out: int32(j), Value: v})
		}
	}
	l.mirrored = true
}
