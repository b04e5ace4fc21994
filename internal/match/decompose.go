package match

import (
	"math/bits"
	"slices"
	"sync"

	"hybridsched/internal/demand"
)

// This file is the frame-decomposition engine: the word-parallel core
// behind DecomposeBvN, DecomposeMaxMin and the FrameScheduler.
//
//   - The Kuhn augmenting search runs over the demand matrix's row
//     bitsets with bits.TrailingZeros64 candidate scans, 64 columns per
//     word, instead of walking nonzero-column lists element by element.
//     The explicit-stack search visits candidates in exactly the order
//     the recursive dense scan did (ascending columns, visited re-checked
//     on every resume), so extracted matchings are bit-identical to the
//     dense reference.
//
//   - Within one BvN decomposition, consecutive extractions replay every
//     row the last subtraction cannot have affected (perfectBvN's memo).
//
//   - All scratch — Kuhn state, threshold buffers, the stuffed working
//     matrix, the served matrix, and the produced slots and matchings
//     themselves — lives in the Decomposer and is recycled call over
//     call. Nothing carries over between decompositions except storage:
//     a decomposition is a pure function of its input, so a retained
//     engine returns bit for bit what a fresh one returns, pinned by
//     TestWarmColdEquivalence and FuzzWarmStartRepair.

// kframe is one frame of the explicit augmenting-path stack: the row
// being augmented, the candidate column currently tried, and where the
// candidate scan resumes if that candidate's subtree fails.
type kframe struct {
	row  int32
	j    int32
	next int32
	base int32 // row*words, cached to keep the pop path load-only
}

// Decomposer is the reusable frame-decomposition engine; create with
// newDecomposer. Outputs are bit-for-bit what a fresh engine produces.
//
// Ownership: the slots returned by BvN/MaxMin (and the matchings inside
// them) are arena storage owned by the Decomposer, valid until the next
// decomposition on the same instance. Callers that keep slots longer must
// copy them. A Decomposer is not safe for concurrent use.
type Decomposer struct {
	n, words int

	// Kuhn scratch.
	matchCol []int32
	visited  []uint64
	elig     []uint64 // threshold eligibility masks (lazily allocated)
	frames   []kframe
	out      Matching
	vals     []int64

	// BvN extraction memo (lazily allocated, see perfectBvN): matchCol
	// checkpoints before each row plus the final state ((n+1)*n), the rows
	// and columns each augment visited (n row-bitmasks each), the rows the
	// last subtraction zeroed cells in (one row-bitmask), and that
	// subtraction's zeroed-cell list (packed i*n+j).
	chk   []int32
	touch []uint64
	vis   []uint64
	zrows []uint64
	zlist []int32

	work   *demand.Matrix // stuffed working matrix (pooled, retained)
	served *demand.Matrix // max-min: demand the slots carry (pooled, retained)

	// Output arenas: slot k's Match is mback[k*n:(k+1)*n].
	mback []int
	slots []Slot
}

func newDecomposer(n int) *Decomposer {
	if n <= 0 {
		panic("match: decomposer needs positive n")
	}
	words := (n + 63) / 64
	return &Decomposer{
		n:        n,
		words:    words,
		matchCol: make([]int32, n),
		visited:  make([]uint64, words),
		frames:   make([]kframe, n+1),
		out:      NewMatching(n),
	}
}

// perfect finds a perfect matching using only edges with weight >= thr
// via Kuhn's augmenting-path algorithm over word-parallel candidate
// scans. It reports ok=false if no perfect matching exists. Candidate
// columns are visited in ascending order with the visited set re-checked
// on every scan, exactly like the recursive dense column scan, so
// extracted matchings are identical to the dense reference. The returned
// matching is dc-owned scratch, valid until the next perfect call.
//
//hybridsched:hotpath
func (dc *Decomposer) perfect(d *demand.Matrix, thr int64) (Matching, bool) {
	n := dc.n
	for j := range dc.matchCol {
		dc.matchCol[j] = -1
	}
	// The candidate sets live flat in dc.elig, one words-long row mask per
	// row, so the augmenting inner loop indexes a single slice with no
	// per-frame reslicing. At thr <= 1 the masks are the matrix's own row
	// bitsets, copied verbatim (identical bits, identical visit order);
	// higher thresholds (the max-min search) filter by value.
	dc.buildElig(d, thr)
	for i := 0; i < n; i++ {
		for w := range dc.visited {
			dc.visited[w] = 0
		}
		if !dc.augment(i, nil, nil) {
			return nil, false
		}
	}
	m := dc.out
	for j, i := range dc.matchCol {
		m[i] = j
	}
	return m, true
}

// augment runs one explicit-stack augmenting search from root over the
// row masks buildElig prepared. Each position scans its row's eligible
// columns word-parallel, masking out visited columns at scan time — the
// exact semantics of the recursive formulation, where the visited check
// happens per iteration. The scan state of the current position lives in
// locals; the stack holds only suspended parents.
//
// When tb/vb are non-nil the search records every row whose mask it
// scans (the root and every matched row it descends into) and every
// column it visits, as bitmasks — the read set that perfectBvN's
// memoized replay checks zeroed cells against.
//
//hybridsched:hotpath
func (dc *Decomposer) augment(root int, tb, vb []uint64) bool {
	if dc.words == 2 {
		return dc.augment2(root, tb, vb)
	}
	words := dc.words
	elig := dc.elig
	visited := dc.visited
	matchCol := dc.matchCol
	fr := dc.frames
	sp := 0
	cur := int32(root)
	base := root * words
	next := 0
	if tb != nil {
		for w := range tb {
			tb[w] = 0
		}
		tb[uint(root)>>6] |= 1 << (uint(root) & 63)
	}
	for {
		var w uint64
		wi := next >> 6
		if wi < words {
			w = (elig[base+wi] &^ visited[wi]) >> (uint(next) & 63) << (uint(next) & 63)
			for w == 0 {
				wi++
				if wi >= words {
					break
				}
				w = elig[base+wi] &^ visited[wi]
			}
		}
		if w == 0 {
			// Row exhausted: this position fails; its parent resumes
			// after the candidate that led here.
			if sp == 0 {
				if vb != nil {
					copy(vb, visited)
				}
				return false
			}
			sp--
			cur = fr[sp].row
			next = int(fr[sp].next)
			base = int(fr[sp].base)
			continue
		}
		// The candidate is the lowest set bit of the scan word: its word
		// index is wi, so the visited mark is the isolated bit itself.
		j := wi<<6 + bits.TrailingZeros64(w)
		visited[wi] |= w & -w
		owner := matchCol[j]
		if owner < 0 {
			// Augmenting path found: flip the assignments on the stack.
			matchCol[j] = cur
			for k := sp - 1; k >= 0; k-- {
				matchCol[fr[k].j] = fr[k].row
			}
			if vb != nil {
				copy(vb, visited)
			}
			return true
		}
		fr[sp] = kframe{row: cur, j: int32(j), next: int32(j + 1), base: int32(base)}
		sp++
		cur = owner
		base = int(owner) * words
		next = 0
		if tb != nil {
			tb[uint(owner)>>6] |= 1 << (uint(owner) & 63)
		}
	}
}

// augment2 is augment specialized for two-word rows (64 < n <= 128),
// the dimension class the word-parallel kernels target. Semantics are
// identical — same candidate order, same visited-at-scan-time masking,
// same recorded read sets — but the visited set and the scanned-row
// record live in registers instead of memory, both row words are scanned
// together, and candidate selection is branchless (the select masks
// derive from sign bits, so the only data-dependent branches left are
// the heavily biased row-exhausted and free-column tests).
//
//hybridsched:hotpath
func (dc *Decomposer) augment2(root int, tb, vb []uint64) bool {
	elig := dc.elig
	matchCol := dc.matchCol
	fr := dc.frames
	sp := 0
	cur := int32(root)
	base := root * 2
	var v0, v1 uint64 // visited set, register-resident
	var t0, t1 uint64 // scanned-row record, register-resident
	{
		b := uint64(1) << (uint(root) & 63)
		rm := uint64(int64(63-root) >> 63) // all-ones iff root >= 64
		t0 = b &^ rm
		t1 = b & rm
	}
	w0 := elig[base]
	w1 := elig[base+1]
	for {
		if w0|w1 == 0 {
			// Row exhausted: this position fails; its parent resumes
			// after the candidate that led here.
			if sp == 0 {
				if tb != nil {
					tb[0], tb[1] = t0, t1
					vb[0], vb[1] = v0, v1
				}
				return false
			}
			sp--
			cur = fr[sp].row
			next := int(fr[sp].next)
			base = int(fr[sp].base)
			switch {
			case next < 64:
				w0 = (elig[base] &^ v0) >> (uint(next) & 63) << (uint(next) & 63)
				w1 = elig[base+1] &^ v1
			case next < 128:
				w0 = 0
				w1 = (elig[base+1] &^ v1) >> (uint(next) & 63) << (uint(next) & 63)
			default:
				w0, w1 = 0, 0
			}
			continue
		}
		// Lowest set bit across the two words, branchlessly: a zero word
		// trailing-zero count saturates at 64, and the select mask is the
		// sign of (tz0 - 64).
		tz0 := bits.TrailingZeros64(w0)
		j1 := 64 + bits.TrailingZeros64(w1)
		sm := uint64(int64(tz0-64) >> 63) // all-ones iff w0 != 0
		j := (tz0 & int(sm)) | (j1 &^ int(sm))
		v0 |= (w0 & -w0) & sm
		v1 |= (w1 & -w1) &^ sm
		owner := matchCol[j]
		if owner < 0 {
			// Augmenting path found: flip the assignments on the stack.
			matchCol[j] = cur
			for k := sp - 1; k >= 0; k-- {
				matchCol[fr[k].j] = fr[k].row
			}
			if tb != nil {
				tb[0], tb[1] = t0, t1
				vb[0], vb[1] = v0, v1
			}
			return true
		}
		fr[sp] = kframe{row: cur, j: int32(j), next: int32(j + 1), base: int32(base)}
		sp++
		cur = owner
		base = int(owner) * 2
		b := uint64(1) << (uint(owner) & 63)
		om := uint64(int64(63-owner) >> 63) // all-ones iff owner >= 64
		t0 |= b &^ om
		t1 |= b & om
		w0 = elig[base] &^ v0
		w1 = elig[base+1] &^ v1
	}
}

// perfectBvN is the thr=1 perfect-matching extraction of the BvN loop,
// exploiting how that loop evolves its input: dc.elig already mirrors
// work's support (built once per decomposition, then shrunk in place as
// subtractions zero cells — at threshold 1 a row mask IS the row bitset,
// and BvN never adds cells). Each run records, per row, the matchCol
// state entering that row (chk) and the set of rows the augment scanned
// (touch). With memo set — the previous extraction recorded both, and
// exactly one subtraction separates the runs — rows replay for free:
//
//   - augment(i) is a deterministic function of the matchCol state it
//     enters with and the elig rows it scans. If that entering state is
//     unchanged from the previous run and none of touch[i]'s rows lost a
//     cell (touch ∩ zrows empty), the search takes the identical steps,
//     so its outcome and its scanned-row set are both unchanged: the row
//     is SKIPPED, its chk/touch entries still valid.
//
//   - A row that fails the test runs live from its checkpoint. After a
//     live row, if matchCol equals the next row's checkpoint the state
//     has reconverged with the previous run and skipping resumes;
//     otherwise the next row also runs live, recording its new pre-state
//     into chk (after the reconvergence compare reads the old one).
//
// The replayed transitions are therefore exactly the transitions a
// from-scratch run over the current elig would take, row by row, so the
// extracted matching is bit-for-bit the cold result. The dense
// equivalence suites and TestWarmColdEquivalence pin this.
//
//hybridsched:hotpath
func (dc *Decomposer) perfectBvN(memo bool) (Matching, bool) {
	n, words := dc.n, dc.words
	matchCol := dc.matchCol
	chk := dc.chk
	touch := dc.touch
	vis := dc.vis
	if !memo {
		for j := range matchCol {
			matchCol[j] = -1
		}
		for i := 0; i < n; i++ {
			copy(chk[i*n:(i+1)*n], matchCol)
			for w := range dc.visited {
				dc.visited[w] = 0
			}
			if !dc.augment(i, touch[i*words:(i+1)*words], vis[i*words:(i+1)*words]) {
				return nil, false
			}
		}
		copy(chk[n*n:(n+1)*n], matchCol)
	} else {
		zrows := dc.zrows
		inSync := true
		for i := 0; i < n; i++ {
			if !inSync && slices.Equal(matchCol, chk[i*n:(i+1)*n]) {
				inSync = true
			}
			if inSync {
				var hit uint64
				for w, z := range zrows {
					hit |= touch[i*words+w] & z
				}
				if hit != 0 && !dc.zlistHits(i) {
					hit = 0
				}
				if hit == 0 {
					continue
				}
				copy(matchCol, chk[i*n:(i+1)*n])
				inSync = false
			} else {
				copy(chk[i*n:(i+1)*n], matchCol)
			}
			for w := range dc.visited {
				dc.visited[w] = 0
			}
			if !dc.augment(i, touch[i*words:(i+1)*words], vis[i*words:(i+1)*words]) {
				return nil, false
			}
		}
		if !inSync {
			copy(chk[n*n:(n+1)*n], matchCol)
		}
	}
	m := dc.out
	for j, i := range chk[n*n:] {
		m[i] = j
	}
	return m, true
}

// ensureChk lazily sizes the extraction memo: per-row checkpoints plus
// the final state, scanned-row sets, and the zeroed-row mask.
func (dc *Decomposer) ensureChk() {
	if dc.chk == nil {
		//hybridsched:alloc-ok one-time lazy scratch sized at construction dimension
		dc.chk = make([]int32, (dc.n+1)*dc.n)
		//hybridsched:alloc-ok one-time lazy scratch sized at construction dimension
		dc.touch = make([]uint64, dc.n*dc.words)
		//hybridsched:alloc-ok one-time lazy scratch sized at construction dimension
		dc.vis = make([]uint64, dc.n*dc.words)
		//hybridsched:alloc-ok one-time lazy scratch sized at construction dimension
		dc.zrows = make([]uint64, dc.words)
	}
}

// zlistHits is the precise replay test behind the zrows fast reject:
// it reports whether any cell (r, c) zeroed by the last subtraction had
// BOTH its row scanned and its column visited by row i's previous
// augment. The search selects candidates as lowest set bits of
// elig-minus-visited words, and every selected column is immediately
// marked visited — so a column the previous run never visited was never
// selected from any scanned row, and removing its bit cannot change any
// selection the run made (a scan word cannot even become exhausted by
// the removal: a lone remaining bit would have been selected). Rows with
// no hit replay identically despite losing cells.
//
//hybridsched:hotpath
func (dc *Decomposer) zlistHits(i int) bool {
	n, words := dc.n, dc.words
	touch := dc.touch[i*words : (i+1)*words]
	vis := dc.vis[i*words : (i+1)*words]
	for _, cl := range dc.zlist {
		r, c := int(cl)/n, int(cl)%n
		if touch[uint(r)>>6]&(1<<(uint(r)&63)) != 0 && vis[uint(c)>>6]&(1<<(uint(c)&63)) != 0 {
			return true
		}
	}
	return false
}

// subtractBvN subtracts w along m and keeps the thr=1 masks in step with
// work's support: every cell the subtraction zeroed goes into dc.zlist
// and out of dc.elig, and dc.zrows becomes the bitmask of rows that lost
// a cell, which the next memoized extraction tests each row's
// scanned-row set against.
//
//hybridsched:hotpath
func (dc *Decomposer) subtractBvN(work *demand.Matrix, m Matching, w int64) {
	n, words := dc.n, dc.words
	zrows := dc.zrows
	for k := range zrows {
		zrows[k] = 0
	}
	dc.zlist = dc.zlist[:0]
	for i, j := range m {
		if j == Unmatched {
			continue
		}
		if work.At(i, j) == w {
			//hybridsched:alloc-ok amortized growth of the recycled zeroed-cell list
			dc.zlist = append(dc.zlist, int32(i*n+j))
			dc.elig[i*words+j>>6] &^= 1 << (uint(j) & 63)
			zrows[uint(i)>>6] |= 1 << (uint(i) & 63)
		}
		work.Add(i, j, -w)
	}
}

// buildElig materializes the flat row candidate masks: the raw row
// bitsets at thr <= 1, value-filtered masks above.
//
//hybridsched:hotpath
func (dc *Decomposer) buildElig(d *demand.Matrix, thr int64) {
	n, words := dc.n, dc.words
	if dc.elig == nil {
		//hybridsched:alloc-ok one-time lazy scratch sized at construction dimension
		dc.elig = make([]uint64, n*words)
	}
	if thr <= 1 {
		for i := 0; i < n; i++ {
			copy(dc.elig[i*words:(i+1)*words], d.RowBits(i))
		}
		return
	}
	for i := 0; i < n; i++ {
		off := i * words
		for w := 0; w < words; w++ {
			dc.elig[off+w] = 0
		}
		row := d.Row(i)
		for k := 0; k < row.Len(); k++ {
			j, v := row.Entry(k)
			if v >= thr {
				dc.elig[off+j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
}

// feasible reports whether a perfect matching exists at threshold thr.
func (dc *Decomposer) feasible(d *demand.Matrix, thr int64) bool {
	_, ok := dc.perfect(d, thr)
	return ok
}

// bestThreshold returns the largest t such that the edges {(i,j) :
// work(i,j) >= t} admit a perfect matching, or 0 if none does. The
// predicate is monotone (feasible below, infeasible above), so the
// search is a plain binary search over the distinct values.
func (dc *Decomposer) bestThreshold(work *demand.Matrix) int64 {
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
		if dc.feasible(work, vals[mid]) {
			best = vals[mid]
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}

// stuffInto rebuilds dc.work as d padded so every line sums to the max
// line sum — the same greedy padding as demand.Matrix.Stuff, into
// retained pooled storage.
func (dc *Decomposer) stuffInto(d *demand.Matrix) *demand.Matrix {
	if dc.work == nil {
		dc.work = demand.FromPool(dc.n)
	}
	w := dc.work
	w.CopyFrom(d)
	target := w.MaxLineSum()
	for i := 0; i < dc.n; i++ {
		for j := 0; j < dc.n && w.RowSum(i) < target; j++ {
			slack := target - w.RowSum(i)
			if cslack := target - w.ColSum(j); cslack < slack {
				slack = cslack
			}
			if slack <= 0 {
				continue
			}
			w.Add(i, j, slack)
		}
	}
	return w
}

// emit appends one extraction to the output arenas. Slot views are
// materialized in finishSlots once the matching arena stops growing.
func (dc *Decomposer) emit(m Matching, w int64) {
	dc.mback = append(dc.mback, m...)
	dc.slots = append(dc.slots, Slot{Weight: w})
}

// finishSlots points each slot at its matching in the (now stable)
// matching arena and returns the caller-visible slots.
func (dc *Decomposer) finishSlots() []Slot {
	n := dc.n
	for k := range dc.slots {
		dc.slots[k].Match = Matching(dc.mback[k*n : (k+1)*n])
	}
	return dc.slots
}

// BvN performs a Birkhoff–von Neumann decomposition: the matrix is
// stuffed so every line sums to MaxLineSum, then repeatedly a perfect
// matching on the positive support is extracted with weight equal to its
// minimum entry. The resulting schedule serves the entire matrix in
// exactly MaxLineSum demand units — optimal when reconfiguration is
// free, but it may use up to n^2-2n+2 slots, each paying the OCS
// dead-time. See the type comment for slot ownership.
func (dc *Decomposer) BvN(d *demand.Matrix) []Slot {
	dc.mback = dc.mback[:0]
	dc.slots = dc.slots[:0]
	work := dc.stuffInto(d)
	// The thr=1 candidate masks are built once and then shrunk in place
	// as subtractions zero cells; consecutive extractions replay every
	// row the zeroed cells cannot have affected (see perfectBvN).
	dc.buildElig(work, 1)
	dc.ensureChk()
	memo := false
	for work.Total() > 0 {
		m, ok := dc.perfectBvN(memo)
		if !ok {
			// Cannot happen for a stuffed matrix (Birkhoff's theorem);
			// guard against a bug rather than spinning forever.
			panic("match: stuffed matrix lost perfect matching")
		}
		memo = true
		w := minAlong(work, m)
		dc.subtractBvN(work, m, w)
		dc.emit(m, w)
	}
	return dc.finishSlots()
}

// MaxMin is the reconfiguration-aware decomposition in the spirit of
// Solstice: each step extracts the perfect matching whose minimum entry
// is as large as possible (found by binary search over thresholds), so
// few fat slots carry most of the demand. Extraction stops when the best
// matching serves less than minWorth per pair — demand not worth an OCS
// reconfiguration — and what is left (residual) is for the EPS to carry.
// The slots follow the type comment's ownership.
func (dc *Decomposer) MaxMin(d *demand.Matrix, minWorth int64) []Slot {
	dc.mback = dc.mback[:0]
	dc.slots = dc.slots[:0]
	work := dc.stuffInto(d)
	if dc.served == nil {
		dc.served = demand.FromPool(dc.n)
	} else {
		dc.served.Reset()
	}
	for work.Total() > 0 {
		thr := dc.bestThreshold(work)
		if thr <= 0 {
			break
		}
		m, ok := dc.perfect(work, thr)
		if !ok {
			panic("match: threshold search returned infeasible threshold")
		}
		w := minAlong(work, m)
		if minWorth > 0 && w < minWorth {
			break
		}
		subtract(work, m, w)
		for i, j := range m {
			if j != Unmatched {
				dc.served.Add(i, j, w)
			}
		}
		dc.emit(m, w)
	}
	return dc.finishSlots()
}

// residual returns the demand of d that the last MaxMin(d, ...) left
// unserved, as a new caller-owned matrix. It is not drawn from the matrix
// pool: callers keep residuals, so a pooled one would rarely be recycled.
func (dc *Decomposer) residual(d *demand.Matrix) *demand.Matrix {
	res := demand.NewMatrix(dc.n)
	for i := 0; i < dc.n; i++ {
		row := d.Row(i)
		for k := 0; k < row.Len(); k++ {
			j, v := row.Entry(k)
			if rem := v - dc.served.At(i, j); rem > 0 {
				res.Set(i, j, rem)
			}
		}
	}
	return res
}

// decomposerPools recycles engines per dimension, so the package-level
// Decompose functions reuse Kuhn scratch, arenas and the stuffed working
// matrix across calls.
var decomposerPools sync.Map // int -> *sync.Pool

func decomposerFor(n int) *Decomposer {
	p, ok := decomposerPools.Load(n)
	if !ok {
		p, _ = decomposerPools.LoadOrStore(n, &sync.Pool{
			New: func() any { return newDecomposer(n) },
		})
	}
	return p.(*sync.Pool).Get().(*Decomposer)
}

func (dc *Decomposer) release() {
	p, _ := decomposerPools.Load(dc.n)
	p.(*sync.Pool).Put(dc)
}

// cloneSlots copies engine-owned slots into caller-owned storage backed
// by one contiguous allocation.
func cloneSlots(slots []Slot, n int) []Slot {
	if len(slots) == 0 {
		return nil
	}
	back := make([]int, len(slots)*n)
	out := make([]Slot, len(slots))
	for k, s := range slots {
		m := back[k*n : (k+1)*n]
		copy(m, s.Match)
		out[k] = Slot{Match: Matching(m), Weight: s.Weight}
	}
	return out
}
