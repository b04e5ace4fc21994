// Package demand implements demand-matrix representation and estimation —
// the first stage of the paper's scheduling logic ("processes the incoming
// requests, estimates the demand matrix, and runs the scheduling
// algorithm").
//
// A Matrix holds per (input, output) demand in abstract int64 units
// (the fabric uses bits). Estimators turn the stream of VOQ status
// reports into a demand snapshot; the choice of estimator is one of the
// ablations experiment E8 evaluates, because estimation lag is one of the
// latency terms that make software schedulers slow.
//
// # Scale
//
// The matrix is dense in storage (At/Set stay O(1)) but additionally
// maintains, incrementally on every Set/Add: the ascending nonzero column
// indices of each row (Row, NonZeros, RowNonZeros), and exact row/column/
// total sums (RowSum, ColSum, Total, MaxLineSum — all O(1), MaxLineSum
// O(n)). At fabric scale (hundreds of ports) real demand is sparse — each
// port converses with a few peers — so the matching algorithms in
// internal/match iterate Row views in O(nonzeros) instead of scanning all
// n² cells. FromPool/Release recycle matrices through a per-size
// sync.Pool so estimators and frame decompositions stop paying an n²
// allocation per scheduling frame.
package demand

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"hybridsched/internal/units"
)

// Matrix is an n x n demand matrix. Entries are non-negative.
type Matrix struct {
	n     int
	words int // uint64 words per bitset row/column: ceil(n/64)
	v     []int64
	cols  [][]int32 // per-row ascending nonzero column indices
	rbits []uint64  // row bitsets: bit j of row i set iff At(i,j) > 0
	cbits []uint64  // column bitsets: bit i of column j set iff At(i,j) > 0
	rsum  []int64   // per-row sums
	csum  []int64   // per-column sums
	nz    int       // total nonzero entries
	tot   int64     // total sum
}

// NewMatrix returns a zero n x n matrix. It panics if n <= 0.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic("demand: matrix size must be positive")
	}
	words := (n + 63) / 64
	return &Matrix{
		n:     n,
		words: words,
		v:     make([]int64, n*n),
		cols:  make([][]int32, n),
		rbits: make([]uint64, n*words),
		cbits: make([]uint64, n*words),
		rsum:  make([]int64, n),
		csum:  make([]int64, n),
	}
}

// matrixPools holds one sync.Pool of zeroed matrices per dimension.
var matrixPools sync.Map // int -> *sync.Pool

func poolFor(n int) *sync.Pool {
	if p, ok := matrixPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := matrixPools.LoadOrStore(n, &sync.Pool{
		New: func() any { return NewMatrix(n) },
	})
	return p.(*sync.Pool)
}

// FromPool returns a zeroed n x n matrix from the shared pool. It is
// interchangeable with NewMatrix; callers that Release matrices when done
// keep per-frame snapshot and decomposition work allocation-free.
func FromPool(n int) *Matrix {
	return poolFor(n).Get().(*Matrix)
}

// Release zeroes m and returns it to the pool. The caller must not use m
// afterwards. Releasing is optional — matrices that escape to long-lived
// owners are simply collected by the GC.
func (m *Matrix) Release() {
	m.Reset()
	poolFor(m.n).Put(m)
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// At returns entry (i, j).
func (m *Matrix) At(i, j int) int64 { return m.v[i*m.n+j] }

// Set assigns entry (i, j). Negative values are clamped to zero.
//
//hybridsched:hotpath
func (m *Matrix) Set(i, j int, x int64) {
	if x < 0 {
		x = 0
	}
	idx := i*m.n + j
	old := m.v[idx]
	if old == x {
		return
	}
	m.v[idx] = x
	m.rsum[i] += x - old
	m.csum[j] += x - old
	m.tot += x - old
	if old == 0 {
		m.insertCol(i, int32(j))
		m.rbits[i*m.words+j>>6] |= 1 << (uint(j) & 63)
		m.cbits[j*m.words+i>>6] |= 1 << (uint(i) & 63)
		m.nz++
	} else if x == 0 {
		m.removeCol(i, int32(j))
		m.rbits[i*m.words+j>>6] &^= 1 << (uint(j) & 63)
		m.cbits[j*m.words+i>>6] &^= 1 << (uint(i) & 63)
		m.nz--
	}
}

// insertCol records column j as nonzero in row i, keeping the row's index
// list ascending. Appending in column order (how estimators and copies
// build matrices) hits the O(1) fast path.
func (m *Matrix) insertCol(i int, j int32) {
	row := m.cols[i]
	if k := len(row); k == 0 || row[k-1] < j {
		//hybridsched:alloc-ok amortized growth of the row's own index storage
		m.cols[i] = append(row, j)
		return
	}
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	row = append(row, 0)
	copy(row[lo+1:], row[lo:])
	row[lo] = j
	m.cols[i] = row
}

// removeCol drops column j from row i's nonzero index list.
func (m *Matrix) removeCol(i int, j int32) {
	row := m.cols[i]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(row[lo:], row[lo+1:])
	m.cols[i] = row[:len(row)-1]
}

// Add increments entry (i, j), clamping at zero.
//
//hybridsched:hotpath
func (m *Matrix) Add(i, j int, d int64) { m.Set(i, j, m.At(i, j)+d) }

// Row is a read-only view of one row's nonzero entries in ascending
// column order. It is valid until the matrix is next mutated.
type Row struct {
	cols []int32
	vals []int64 // the full dense row; indexed by column
}

// Row returns the nonzero view of row i.
func (m *Matrix) Row(i int) Row {
	return Row{cols: m.cols[i], vals: m.v[i*m.n : (i+1)*m.n]}
}

// Len returns the number of nonzero entries in the row.
func (r Row) Len() int { return len(r.cols) }

// Entry returns the k-th nonzero entry as (column, value). Entries are
// ordered by ascending column.
func (r Row) Entry(k int) (j int, v int64) {
	c := r.cols[k]
	return int(c), r.vals[c]
}

// Words returns the number of uint64 words in each RowBits/ColBits view:
// ceil(N()/64). All Bitsets combined with the matrix's views must be
// sized for the same dimension.
func (m *Matrix) Words() int { return m.words }

// RowBits returns row i's nonzero-column bitset: bit j (word j/64, bit
// j%64) is set iff At(i, j) > 0. The view is read-only and valid until
// the matrix is next mutated. It is maintained incrementally alongside
// the nonzero column lists, so the word-parallel matching kernels can
// AND whole 64-port spans per instruction.
func (m *Matrix) RowBits(i int) []uint64 { return m.rbits[i*m.words : (i+1)*m.words] }

// ColBits returns column j's nonzero-row bitset: bit i is set iff
// At(i, j) > 0. Read-only, valid until the next mutation. This is the
// request vector output-side arbiters (grant phases) scan.
func (m *Matrix) ColBits(j int) []uint64 { return m.cbits[j*m.words : (j+1)*m.words] }

// NonZeros returns the total number of nonzero entries.
func (m *Matrix) NonZeros() int { return m.nz }

// RowNonZeros returns the number of nonzero entries in row i.
func (m *Matrix) RowNonZeros(i int) int { return len(m.cols[i]) }

// Clone returns a deep copy drawn from the matrix pool.
func (m *Matrix) Clone() *Matrix {
	out := FromPool(m.n)
	out.CopyFrom(m)
	return out
}

// CopyFrom makes m an exact copy of src. Both must have the same
// dimension. The copy touches only src's nonzero entries, so copying a
// sparse matrix is O(nonzeros), not O(n²).
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.n != src.n {
		panic(fmt.Sprintf("demand: CopyFrom dimension mismatch %d != %d", m.n, src.n))
	}
	if m == src {
		return
	}
	m.Reset()
	for i := 0; i < m.n; i++ {
		sc := src.cols[i]
		dst := m.cols[i][:0]
		base := i * m.n
		rb := m.rbits[i*m.words : (i+1)*m.words]
		for _, j := range sc {
			m.v[base+int(j)] = src.v[base+int(j)]
			rb[j>>6] |= 1 << (uint(j) & 63)
			m.cbits[int(j)*m.words+i>>6] |= 1 << (uint(i) & 63)
			dst = append(dst, j)
		}
		m.cols[i] = dst
		m.rsum[i] = src.rsum[i]
	}
	copy(m.csum, src.csum)
	m.nz = src.nz
	m.tot = src.tot
}

// Equal reports whether m and o hold exactly the same entries. The
// comparison walks only the nonzero structure, so two sparse matrices
// compare in O(nonzeros), with O(1) early outs on the incremental
// dimension, count and sum metadata.
//
//hybridsched:hotpath
func (m *Matrix) Equal(o *Matrix) bool {
	if m == o {
		return true
	}
	if m.n != o.n || m.nz != o.nz || m.tot != o.tot {
		return false
	}
	for i := 0; i < m.n; i++ {
		mc, oc := m.cols[i], o.cols[i]
		if len(mc) != len(oc) {
			return false
		}
		base := i * m.n
		for k, j := range mc {
			if j != oc[k] || m.v[base+int(j)] != o.v[base+int(j)] {
				return false
			}
		}
	}
	return true
}

// Reset zeroes all entries. Cost is O(nonzeros + n), not O(n²).
func (m *Matrix) Reset() {
	for i, row := range m.cols {
		base := i * m.n
		rb := m.rbits[i*m.words : (i+1)*m.words]
		for _, j := range row {
			m.v[base+int(j)] = 0
			rb[j>>6] &^= 1 << (uint(j) & 63)
			m.cbits[int(j)*m.words+i>>6] &^= 1 << (uint(i) & 63)
		}
		m.cols[i] = row[:0]
		m.rsum[i] = 0
	}
	for j := range m.csum {
		m.csum[j] = 0
	}
	m.nz = 0
	m.tot = 0
}

// Total returns the sum of all entries. O(1): maintained incrementally.
func (m *Matrix) Total() int64 { return m.tot }

// RowSum returns the sum of row i. O(1): maintained incrementally.
func (m *Matrix) RowSum(i int) int64 { return m.rsum[i] }

// ColSum returns the sum of column j. O(1): maintained incrementally.
func (m *Matrix) ColSum(j int) int64 { return m.csum[j] }

// MaxLineSum returns the largest row or column sum — the lower bound on the
// time any schedule needs to serve the matrix (the "makespan bound").
func (m *Matrix) MaxLineSum() int64 {
	var best int64
	for i := 0; i < m.n; i++ {
		if r := m.rsum[i]; r > best {
			best = r
		}
		if c := m.csum[i]; c > best {
			best = c
		}
	}
	return best
}

// Max returns the largest entry.
func (m *Matrix) Max() int64 {
	var best int64
	for i, row := range m.cols {
		base := i * m.n
		for _, j := range row {
			if x := m.v[base+int(j)]; x > best {
				best = x
			}
		}
	}
	return best
}

// Quantize converts the matrix to whole slots of slotUnits each, rounding
// up (any residual demand still needs a slot).
func (m *Matrix) Quantize(slotUnits int64) *Matrix {
	if slotUnits <= 0 {
		panic("demand: slotUnits must be positive")
	}
	out := FromPool(m.n)
	for i := 0; i < m.n; i++ {
		row := m.Row(i)
		for k := 0; k < row.Len(); k++ {
			j, v := row.Entry(k)
			out.Set(i, j, (v+slotUnits-1)/slotUnits)
		}
	}
	return out
}

// Stuff returns a copy padded with dummy demand so that every row and
// column sums to MaxLineSum. A stuffed matrix admits a decomposition into
// perfect matchings (Birkhoff–von Neumann), which is what slot-based
// circuit schedules consume. The padding is distributed greedily over
// (row, col) pairs with slack.
func (m *Matrix) Stuff() *Matrix {
	out := m.Clone()
	target := out.MaxLineSum()
	for i := 0; i < out.n; i++ {
		for j := 0; j < out.n && out.rsum[i] < target; j++ {
			slack := target - out.rsum[i]
			if cslack := target - out.csum[j]; cslack < slack {
				slack = cslack
			}
			if slack <= 0 {
				continue
			}
			out.Add(i, j, slack)
		}
	}
	return out
}

// String renders small matrices for debugging and golden tests.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Normalized returns the matrix scaled to doubly sub-stochastic floats
// (every row and column sum <= 1) by dividing by MaxLineSum. Returns nil
// for an all-zero matrix.
func (m *Matrix) Normalized() [][]float64 {
	max := m.MaxLineSum()
	if max == 0 {
		return nil
	}
	out := make([][]float64, m.n)
	for i := range out {
		out[i] = make([]float64, m.n)
		row := m.Row(i)
		for k := 0; k < row.Len(); k++ {
			j, v := row.Entry(k)
			out[i][j] = float64(v) / float64(max)
		}
	}
	return out
}

// Estimator converts observations into demand snapshots. Implementations
// are driven two ways: Observe on every arrival (in, out, bits), and
// SetOccupancy with direct queue-depth reports. Snapshot produces the
// matrix the scheduler runs on.
type Estimator interface {
	// Observe records that bits of new demand from in to out arrived at
	// time t.
	Observe(t units.Time, in, out int, bits int64)
	// SetOccupancy reports the current VOQ backlog for (in, out).
	SetOccupancy(t units.Time, in, out int, bits int64)
	// Snapshot returns the demand estimate as of time t. The returned
	// matrix is owned by the caller (and may be Released back to the
	// pool once consumed).
	Snapshot(t units.Time) *Matrix
	// Name identifies the estimator in reports.
	Name() string
}

// OccupancySink is implemented by estimators that can ingest a whole
// occupancy matrix at once instead of n² SetOccupancy calls. The matrix
// argument is a read-only view owned by the caller and only valid for the
// duration of the call; implementations must copy what they keep.
// voq.Bank.FillOccupancy uses this fast path when available.
type OccupancySink interface {
	SetOccupancyMatrix(t units.Time, m *Matrix)
}

// Occupancy estimates demand as the instantaneous VOQ backlog. This is
// what a hardware scheduler reading queue-depth registers sees: zero lag,
// but it only knows about packets that already arrived.
type Occupancy struct {
	m *Matrix
}

// NewOccupancy returns an occupancy estimator for an n-port switch.
func NewOccupancy(n int) *Occupancy { return &Occupancy{m: NewMatrix(n)} }

// Observe is a no-op: occupancy is maintained via SetOccupancy.
func (o *Occupancy) Observe(units.Time, int, int, int64) {}

// SetOccupancy records the backlog.
func (o *Occupancy) SetOccupancy(_ units.Time, in, out int, bits int64) {
	o.m.Set(in, out, bits)
}

// SetOccupancyMatrix implements OccupancySink: the whole backlog at once.
func (o *Occupancy) SetOccupancyMatrix(_ units.Time, m *Matrix) {
	o.m.CopyFrom(m)
}

// Snapshot returns the current backlog matrix.
func (o *Occupancy) Snapshot(units.Time) *Matrix { return o.m.Clone() }

// Name implements Estimator.
func (o *Occupancy) Name() string { return "occupancy" }

// Window estimates demand as the bits that arrived in the trailing window.
// This is how software schedulers that poll flow counters (Helios's flow
// demand estimation) see the network: accurate for steady flows, laggy for
// bursts — the estimation-delay term of the paper's §2.
type Window struct {
	n      int
	window units.Duration
	events []windowEvent
	occ    *Matrix
}

type windowEvent struct {
	t       units.Time
	in, out int
	bits    int64
}

// NewWindow returns a trailing-window estimator. window must be positive.
func NewWindow(n int, window units.Duration) *Window {
	if window <= 0 {
		panic("demand: window must be positive")
	}
	return &Window{n: n, window: window, occ: NewMatrix(n)}
}

// Observe appends an arrival.
func (w *Window) Observe(t units.Time, in, out int, bits int64) {
	w.events = append(w.events, windowEvent{t, in, out, bits})
}

// SetOccupancy is tracked so Snapshot can cap the estimate at the real
// backlog (you cannot serve demand that has not arrived).
func (w *Window) SetOccupancy(_ units.Time, in, out int, bits int64) {
	w.occ.Set(in, out, bits)
}

// SetOccupancyMatrix implements OccupancySink.
func (w *Window) SetOccupancyMatrix(_ units.Time, m *Matrix) {
	w.occ.CopyFrom(m)
}

// Snapshot sums arrivals within the trailing window.
func (w *Window) Snapshot(t units.Time) *Matrix {
	cut := t.Add(-w.window)
	out := FromPool(w.n)
	// Drop expired events in place.
	kept := w.events[:0]
	for _, e := range w.events {
		if e.t.Before(cut) {
			continue
		}
		kept = append(kept, e)
		out.Add(e.in, e.out, e.bits)
	}
	w.events = kept
	return out
}

// Name implements Estimator.
func (w *Window) Name() string { return "window" }

// EWMA estimates per-pair demand rate with exponential smoothing over
// fixed-length buckets, scaled back to a per-window volume. Smoother than
// Window under bursts, slower to converge after shifts.
type EWMA struct {
	n      int
	alpha  float64
	bucket units.Duration
	cur    *Matrix
	rate   []float64 // smoothed bits per bucket
	last   units.Time
}

// NewEWMA returns an EWMA estimator with smoothing factor alpha in (0, 1]
// over buckets of the given length.
func NewEWMA(n int, alpha float64, bucket units.Duration) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("demand: alpha must be in (0,1]")
	}
	if bucket <= 0 {
		panic("demand: bucket must be positive")
	}
	return &EWMA{n: n, alpha: alpha, bucket: bucket,
		cur: NewMatrix(n), rate: make([]float64, n*n)}
}

// Observe accumulates arrivals into the current bucket, folding completed
// buckets into the smoothed rate.
func (e *EWMA) Observe(t units.Time, in, out int, bits int64) {
	e.roll(t)
	e.cur.Add(in, out, bits)
}

// SetOccupancy is a no-op for EWMA (it is a pure rate estimator).
func (e *EWMA) SetOccupancy(units.Time, int, int, int64) {}

// SetOccupancyMatrix implements OccupancySink as a no-op.
func (e *EWMA) SetOccupancyMatrix(units.Time, *Matrix) {}

func (e *EWMA) roll(t units.Time) {
	for t.Sub(e.last) >= e.bucket {
		for i := range e.rate {
			e.rate[i] = e.alpha*float64(e.cur.v[i]) + (1-e.alpha)*e.rate[i]
		}
		e.cur.Reset()
		e.last = e.last.Add(e.bucket)
	}
}

// Snapshot returns the smoothed per-bucket volume.
func (e *EWMA) Snapshot(t units.Time) *Matrix {
	e.roll(t)
	out := FromPool(e.n)
	for idx, r := range e.rate {
		if v := int64(math.Round(r)); v != 0 {
			out.Set(idx/e.n, idx%e.n, v)
		}
	}
	return out
}

// Name implements Estimator.
func (e *EWMA) Name() string { return "ewma" }
