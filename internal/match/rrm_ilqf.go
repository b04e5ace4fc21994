package match

import (
	"fmt"
	"math/bits"

	"hybridsched/internal/demand"
)

// RRM is Round-Robin Matching — iSLIP's direct ancestor. Identical
// request/grant/accept structure, but pointers advance unconditionally
// every slot instead of only on first-iteration accepts. The missing
// desynchronization rule is exactly what caps RRM near 63% throughput
// under uniform saturation while iSLIP reaches 100%; keeping both makes
// the ablation measurable.
type RRM struct {
	n          int
	words      int
	iterations int
	grantPtr   []int
	acceptPtr  []int

	// Scratch reused across Schedule calls (see Algorithm.Schedule).
	out       Matching
	busyIn    *demand.Bitset
	busyOut   *demand.Bitset
	granted   *demand.Bitset
	grantBits []uint64
	activeOut []int32
}

// NewRRM returns a round-robin matching arbiter.
func NewRRM(n, iterations int) *RRM {
	if n <= 0 || iterations <= 0 {
		panic("match: RRM needs positive n and iterations")
	}
	words := (n + 63) / 64
	return &RRM{n: n, words: words, iterations: iterations,
		grantPtr: make([]int, n), acceptPtr: make([]int, n),
		out:       NewMatching(n),
		busyIn:    demand.NewBitset(n),
		busyOut:   demand.NewBitset(n),
		granted:   demand.NewBitset(n),
		grantBits: make([]uint64, n*words),
		activeOut: make([]int32, 0, n),
	}
}

// Name implements Algorithm.
func (r *RRM) Name() string { return fmt.Sprintf("rrm-%d", r.iterations) }

// Reset implements Algorithm.
func (r *RRM) Reset() {
	for i := range r.grantPtr {
		r.grantPtr[i] = 0
		r.acceptPtr[i] = 0
	}
}

// Complexity implements Algorithm (same word-parallel structure as
// iSLIP, plus the unconditional O(n) pointer rotation).
func (r *RRM) Complexity(n int) Complexity {
	w := bitsetWords(n)
	return Complexity{
		HardwareDepth: 3 * r.iterations,
		SoftwareOps:   r.iterations*(5*n*w+2*n) + 5*n,
	}
}

// Schedule implements Algorithm. Like iSLIP it runs masked word scans
// over the matrix's column bitsets for grants and per-input grant bitset
// rows for accepts.
//
//hybridsched:hotpath
func (r *RRM) Schedule(d *demand.Matrix) Matching {
	n, words := r.n, r.words
	inMatch := r.out
	for i := range inMatch {
		inMatch[i] = Unmatched
	}
	r.busyIn.Zero()
	r.busyOut.Zero()
	r.activeOut = activeOutputs(d, r.activeOut)
	busyIn := r.busyIn.Words()

	for iter := 0; iter < r.iterations; iter++ {
		// As in iSLIP, outputs that are matched or whose requesters are all
		// matched are compacted out of the active list: neither can grant
		// again this Schedule, since busyIn and busyOut only grow.
		live := r.activeOut[:0]
		for _, j32 := range r.activeOut {
			j := int(j32)
			if r.busyOut.Test(j) {
				continue
			}
			best := demand.ClockwiseBit(d.ColBits(j), busyIn, r.grantPtr[j], n)
			if best < 0 {
				continue
			}
			live = append(live, j32)
			r.grantBits[best*words+j>>6] |= 1 << (uint(j) & 63)
			r.granted.Set(best)
		}
		r.activeOut = live
		any := false
		gw := r.granted.Words()
		for i := demand.NextBit(gw, 0); i >= 0; i = demand.NextBit(gw, i+1) {
			row := r.grantBits[i*words : (i+1)*words]
			best := demand.ClockwiseBit(row, nil, r.acceptPtr[i], n)
			for k := range row {
				row[k] = 0
			}
			inMatch[i] = best
			r.busyIn.Set(i)
			r.busyOut.Set(best)
			any = true
		}
		r.granted.Zero()
		if !any {
			break
		}
	}
	// RRM's defining flaw: pointers advance every slot regardless of
	// accepts, so they stay synchronized under symmetric load.
	for j := 0; j < n; j++ {
		r.grantPtr[j] = (r.grantPtr[j] + 1) % n
	}
	for i := 0; i < n; i++ {
		r.acceptPtr[i] = (r.acceptPtr[i] + 1) % n
	}
	return inMatch
}

// ILQF is iterative Longest Queue First: the request/grant/accept
// skeleton with arbiters that prefer the *deepest* VOQ instead of a
// round-robin pointer (ties break on lower index). Weight-aware like
// greedy but iterative and parallelizable like iSLIP; it lacks iSLIP's
// starvation freedom, which the fairness test demonstrates.
//
// Schedule derives every choice from the matrix: the candidate sets are
// walked as bitset rows (64 ports skipped per empty word) and each
// surviving candidate costs a queue-depth lookup in the dense array — the
// value comparison is what cannot be word-parallelized, and at 2048 ports
// those lookups are cache misses. ScheduleDelta (delta.go) is the same
// arbiter for a caller that can say which cells changed since the last
// call: it keeps every output's requesters sorted in a compact mirror,
// repairs the listed cells, and grants from the head of each list.
type ILQF struct {
	n          int
	words      int
	iterations int

	// Scratch reused across Schedule calls (see Algorithm.Schedule).
	out       Matching
	busyIn    *demand.Bitset
	grantReg  []ilqfGrantReg
	grantBits []uint64
	activeOut []int32
	loserOut  []int32
	grantees  []int32

	// The change-feed mirror, allocated by the first ScheduleDelta: output
	// j's requesters are mirror[j*stride:][:deg[j]], deepest first, ties on
	// the lower input. mirrored says it describes the matrix of the previous
	// call; Schedule and Reset clear it.
	mirror   []ilqfCand
	deg      []int32
	stride   int
	mirrored bool
}

// ilqfGrantReg is an input's per-iteration grant register: the first two
// granting outputs together with the granted queue depths (the grant
// phase already looked those cells up, so the two-candidate accept needs
// no further matrix reads). g1/v1 duplicate g0/v0 while cnt is 1.
type ilqfGrantReg struct {
	v0, v1 int64
	cnt    int32
	g0, g1 int32
}

// NewILQF returns an iterative longest-queue-first arbiter.
func NewILQF(n, iterations int) *ILQF {
	if n <= 0 || iterations <= 0 {
		panic("match: iLQF needs positive n and iterations")
	}
	words := (n + 63) / 64
	return &ILQF{n: n, words: words, iterations: iterations,
		out:       NewMatching(n),
		busyIn:    demand.NewBitset(n),
		grantReg:  make([]ilqfGrantReg, n),
		grantBits: make([]uint64, n*words),
		activeOut: make([]int32, 0, n),
		loserOut:  make([]int32, 0, n),
		grantees:  make([]int32, 0, n),
	}
}

// Name implements Algorithm.
func (l *ILQF) Name() string { return fmt.Sprintf("ilqf-%d", l.iterations) }

// Reset implements Algorithm. iLQF carries no arbiter state between
// slots; what Reset drops is the mirror's claim to describe the caller's
// matrix, so the next ScheduleDelta rebuilds it.
func (l *ILQF) Reset() { l.mirrored = false }

// Complexity implements Algorithm: each phase needs a max-tree
// (depth log n) rather than a priority encoder, hence the 2x factor in
// hardware. The software figure models the from-scratch Schedule, the
// path the batch simulator and the timing models price: each iteration
// scans the request and grant bitset rows (2·n·words words) and pays one
// depth lookup per surviving candidate — modeled at the reference fill
// (see modelFill), since the comparison work is per-nonzero rather than
// per-word. ScheduleDelta's cost is per changed cell plus one list head
// per output and is not modeled here.
func (l *ILQF) Complexity(n int) Complexity {
	w := bitsetWords(n)
	return Complexity{
		HardwareDepth: 2 * l.iterations * log2ceil(n),
		SoftwareOps:   l.iterations*(3*n*w+2*n+2*modelFill*n) + 3*n,
	}
}

// Schedule implements Algorithm. The loop structure mirrors iSLIP's (see
// (*ISLIP).Schedule): grant and accept decisions are order-independent
// within a phase — ILQF's tie rule, lowest index among the deepest, is
// enforced explicitly in the comparisons rather than by iteration order —
// so both phases run over compact work lists and the accept phase
// rebuilds the next iteration's scan list from the losing granters.
//
//hybridsched:hotpath
func (l *ILQF) Schedule(d *demand.Matrix) Matching {
	l.mirrored = false
	return l.run(d)
}

// run is the arbiter under Schedule and ScheduleDelta. The two differ in
// where a grant's choice is read from — the matrix column, or the
// output's mirror list when the mirror is current — and in nothing else.
//
//hybridsched:hotpath
func (l *ILQF) run(d *demand.Matrix) Matching {
	l.busyIn.Zero()
	cur := activeOutputs(d, l.activeOut[:0])
	next := l.loserOut[:0]
	grantees := l.grantees[:0]
	for iter := 0; iter < l.iterations; iter++ {
		grantees = l.grant(d, cur, grantees)
		if len(grantees) == 0 {
			break
		}
		next = l.accept(d, grantees, next[:0])
		grantees = grantees[:0]
		cur, next = next, cur
	}
	// Fix up the inputs that never accepted (see iSLIP).
	for wi, b := range l.busyIn.Words() {
		w := ^b
		if wi == l.words-1 {
			if r := uint(l.n) & 63; r != 0 {
				w &= 1<<r - 1
			}
		}
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			l.out[i] = Unmatched
		}
	}
	l.activeOut, l.loserOut, l.grantees = cur[:0], next[:0], grantees
	return l.out
}

// grant is the grant phase: each contested output in cur grants its
// deepest unmatched requesting input (ties break on lower input index) and
// the grant lands in that input's register, the input joining grantees on
// its first. From scratch the choice is a walk of the column bitset that
// reads every surviving candidate's depth from the matrix; over a current
// mirror it is the first entry of the output's list whose input is free.
//
//hybridsched:hotpath
func (l *ILQF) grant(d *demand.Matrix, cur, grantees []int32) []int32 {
	words, mirrored := l.words, l.mirrored
	busyIn := l.busyIn.Words()
	for _, j32 := range cur {
		j := int(j32)
		best, bestV := -1, int64(0)
		if mirrored {
			for _, c := range l.mirror[j*l.stride:][:l.deg[j]] {
				if busyIn[uint(c.in)>>6]&(1<<(uint(c.in)&63)) == 0 {
					best, bestV = int(c.in), c.v
					break
				}
			}
		} else {
			for wi, w := range d.ColBits(j) {
				w &^= busyIn[wi]
				for w != 0 {
					i := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					if v := d.At(i, j); v > bestV {
						best, bestV = i, v
					}
				}
			}
		}
		if best < 0 {
			continue // requesters exhausted; stays unmatched
		}
		reg := &l.grantReg[best]
		cnt := reg.cnt
		reg.cnt = cnt + 1
		switch cnt {
		case 0:
			reg.g0, reg.v0 = j32, bestV
			reg.g1, reg.v1 = j32, bestV
			grantees = append(grantees, int32(best))
		case 1:
			reg.g1, reg.v1 = j32, bestV
		default:
			row := l.grantBits[best*words : (best+1)*words]
			if cnt == 2 {
				g0, g1 := reg.g0, reg.g1
				row[uint(g0)>>6] |= 1 << (uint(g0) & 63)
				row[uint(g1)>>6] |= 1 << (uint(g1) & 63)
			}
			row[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	return grantees
}

// accept is the accept phase both grant loops share: each granted input
// accepts its deepest granting output (ties break on lower output index)
// and is marked busy; the losing granters are appended to next, the
// following iteration's scan list. The grant registers carry the queue
// depths, so only spilled rows look depths up again (depth).
//
//hybridsched:hotpath
func (l *ILQF) accept(d *demand.Matrix, grantees, next []int32) []int32 {
	words := l.words
	busyIn := l.busyIn.Words()
	for _, i32 := range grantees {
		i := int(i32)
		reg := &l.grantReg[i]
		cnt := reg.cnt
		reg.cnt = 0
		var best int
		if cnt <= 2 {
			best = int(reg.g0)
			if reg.v1 > reg.v0 || (reg.v1 == reg.v0 && reg.g1 < reg.g0) {
				best = int(reg.g1)
			}
			if cnt == 2 {
				next = append(next, reg.g0+reg.g1-int32(best))
			}
		} else {
			row := l.grantBits[i*words : (i+1)*words]
			best = -1
			bestV := int64(0)
			for wi, w := range row {
				for w != 0 {
					j := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					if v := l.depth(d, i, j); v > bestV {
						best, bestV = j, v
					}
				}
			}
			for wi := range row {
				w := row[wi]
				row[wi] = 0
				for w != 0 {
					jj := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					if jj != best {
						next = append(next, int32(jj))
					}
				}
			}
		}
		l.out[i] = best
		busyIn[uint(i)>>6] |= 1 << (uint(i) & 63)
	}
	return next
}

// depth is the accept spill path's lookup of cell (i, j): from output j's
// mirror list while the mirror is current (ScheduleDelta — the list is in
// cache, the dense cell is not), from the matrix otherwise.
func (l *ILQF) depth(d *demand.Matrix, i, j int) int64 {
	if !l.mirrored {
		return d.At(i, j)
	}
	for _, c := range l.mirror[j*l.stride:][:l.deg[j]] {
		if int(c.in) == i {
			return c.v
		}
	}
	return 0
}

func init() {
	Register("rrm", func(n int, _ uint64) Algorithm { return NewRRM(n, log2ceil(n)) })
	Register("ilqf", func(n int, _ uint64) Algorithm { return NewILQF(n, log2ceil(n)) })
}
