package serve

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"hybridsched/internal/demand"
	"hybridsched/internal/match"
	"hybridsched/internal/metrics"
	"hybridsched/internal/rng"
	"hybridsched/internal/trace"
)

// testPeers bounds the demand graph of the differential test: every offer
// goes from a port to one of the next testPeers ports (or, at offset 0,
// to itself — the self-pair the ingest filters must drop), so the matrix
// never holds more than testPeers*n nonzeros and the test can put the
// journal on either side of half of that at will.
const testPeers = 5

type testOffer struct {
	src, dst int
	bits     int64
}

func randomOffer(r *rng.Rand, n int, maxBits int64) testOffer {
	src := r.Intn(n)
	return testOffer{src, (src + r.Intn(testPeers+1)) % n, 1 + r.Int63n(maxBits)}
}

// scriptSource is a deterministic Source: the same seed replays the same
// offer stream epoch by epoch.
type scriptSource struct {
	n, perEpoch int
	r           *rng.Rand
}

func (s *scriptSource) Advance(offer func(src, dst int, bits int64)) {
	for k := 0; k < s.perEpoch; k++ {
		o := randomOffer(s.r, s.n, 64000)
		offer(o.src, o.dst, o.bits)
	}
}

// refModel is the scheduler the journal must be indistinguishable from:
// its own pending and snapshot matrices, a full CopyFrom at every epoch
// boundary, the same algorithm with the same seed, the same capped drain.
type refModel struct {
	slotBits      int64
	pending, snap *demand.Matrix
	alg           match.Algorithm
	source        Source

	epochs, idle, offers, pairs uint64
	offered, served             int64
}

func (r *refModel) offer(src, dst int, bits int64) {
	if src == dst {
		return
	}
	r.pending.Add(src, dst, bits)
	r.offered += bits
	r.offers++
}

// step runs one reference epoch. during are the offers that reach the
// service while its Schedule call is running: after the snapshot, before
// the drain.
func (r *refModel) step(during []testOffer) Frame {
	r.source.Advance(r.offer)
	r.snap.CopyFrom(r.pending)
	m := r.alg.Schedule(r.snap)
	for _, o := range during {
		r.offer(o.src, o.dst, o.bits)
	}
	f := Frame{Match: m}
	for in, out := range m {
		if out == match.Unmatched {
			continue
		}
		f.Pairs++
		take := r.snap.At(in, out)
		if take > r.slotBits {
			take = r.slotBits
		}
		if take > 0 {
			r.pending.Add(in, out, -take)
			f.ServedBits += take
		}
	}
	f.BacklogBits = r.pending.Total()
	r.served += f.ServedBits
	r.epochs++
	r.pairs += uint64(f.Pairs)
	if f.Pairs == 0 {
		r.idle++
	}
	f.Epoch = r.epochs
	return f
}

// restore is what Snapshot followed by Restore does to a scheduler: the
// demand survives, the algorithm and the per-run counters start over.
func (r *refModel) restore() {
	r.alg.Reset()
	r.idle = 0
	r.offered = r.pending.Total()
	r.served = 0
}

// sameMatrix is Equal plus the derived state Equal does not read: row
// and column sums and both bitset views.
func sameMatrix(a, b *demand.Matrix) error {
	if !a.Equal(b) {
		return fmt.Errorf("entries differ (%d nonzeros, total %d against %d, %d)",
			a.NonZeros(), a.Total(), b.NonZeros(), b.Total())
	}
	for i := 0; i < a.N(); i++ {
		if a.RowSum(i) != b.RowSum(i) || a.ColSum(i) != b.ColSum(i) {
			return fmt.Errorf("line sums of port %d differ", i)
		}
		ar, br, ac, bc := a.RowBits(i), b.RowBits(i), a.ColBits(i), b.ColBits(i)
		for w := range ar {
			if ar[w] != br[w] || ac[w] != bc[w] {
				return fmt.Errorf("bitsets of port %d differ", i)
			}
		}
	}
	return nil
}

// duringSchedule wraps the scheduler's algorithm so the test can act
// inside the Schedule call — after the epoch boundary, with the demand
// lock released: check hands over the snapshot the boundary produced, and
// offers are made from a second goroutine while the inner Schedule runs.
// Install it with wrapAlgorithm, which keeps the inner algorithm's
// ScheduleDelta reachable.
type duringSchedule struct {
	match.Algorithm
	s      *Scheduler
	check  func(snap *demand.Matrix)
	offers []testOffer
}

// around runs one inner schedule call with the check before it and the
// offers alongside it.
func (d *duringSchedule) around(snap *demand.Matrix, inner func() match.Matching) match.Matching {
	d.check(snap)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, o := range d.offers {
			d.s.Offer(o.src, o.dst, o.bits)
		}
	}()
	m := inner()
	wg.Wait()
	return m
}

func (d *duringSchedule) Schedule(snap *demand.Matrix) match.Matching {
	return d.around(snap, func() match.Matching { return d.Algorithm.Schedule(snap) })
}

// duringScheduleDelta is duringSchedule around an algorithm with the
// incremental face: the delta call gets the same check and the same
// concurrent offers.
type duringScheduleDelta struct {
	*duringSchedule
	inner deltaScheduler
}

func (d duringScheduleDelta) ScheduleDelta(snap *demand.Matrix, changed []match.Change) match.Matching {
	return d.around(snap, func() match.Matching { return d.inner.ScheduleDelta(snap, changed) })
}

// wrapAlgorithm puts hook around s's algorithm through setAlgorithm, the
// way New installed it, so the scheduler sees exactly the faces the inner
// algorithm has.
func wrapAlgorithm(s *Scheduler, hook *duringSchedule) {
	hook.Algorithm, hook.s = s.alg, s
	if inner, ok := s.alg.(deltaScheduler); ok {
		s.setAlgorithm(duringScheduleDelta{hook, inner})
	} else {
		s.setAlgorithm(hook)
	}
}

// TestJournalMatchesFullCopy drives a Scheduler and the reference model
// through the same seeded run — bursts that overflow the journal, long
// sparse stretches that replay it, ingest through Offer, OfferRecords
// and a Source, offers landing while Schedule runs, and a Snapshot and
// Restore halfway — and requires the snapshot at every boundary, every
// frame and every Stats to be the same on both sides.
func TestJournalMatchesFullCopy(t *testing.T) {
	for _, tc := range []struct {
		alg    string
		n      int
		epochs int
	}{
		{"islip", 32, 4000}, {"islip", 128, 3000}, {"islip", 512, 1000},
		{"ilqf", 32, 4000}, {"ilqf", 128, 3000}, {"ilqf", 512, 1000},
		{"tdma", 32, 4000}, {"tdma", 128, 3000}, {"tdma", 512, 1000},
		{"bvn", 32, 4000}, {"bvn", 128, 1000}, {"bvn", 512, 100},
	} {
		t.Run(fmt.Sprintf("%s/n=%d", tc.alg, tc.n), func(t *testing.T) {
			t.Parallel()
			epochs := tc.epochs
			if testing.Short() {
				epochs /= 4
			}
			runJournalDifferential(t, tc.alg, tc.n, epochs)
		})
	}
}

func runJournalDifferential(t *testing.T, alg string, n, epochs int) {
	const seed, slotBits = 11, 12000
	perEpoch := n / 8
	s := newTestScheduler(t, Config{
		Ports: n, Algorithm: alg, Seed: seed, SlotBits: slotBits,
		Source:  &scriptSource{n: n, perEpoch: perEpoch, r: rng.New(seed + 1)},
		Metrics: metrics.NewRegistry(),
	})
	refAlg, err := match.New(alg, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refModel{
		slotBits: slotBits,
		pending:  demand.NewMatrix(n),
		snap:     demand.NewMatrix(n),
		alg:      refAlg,
		source:   &scriptSource{n: n, perEpoch: perEpoch, r: rng.New(seed + 1)},
	}
	hook := &duringSchedule{check: func(snap *demand.Matrix) {
		if err := sameMatrix(snap, ref.snap); err != nil {
			t.Fatalf("epoch %d: snapshot at the boundary is not the reference's full copy: %v", ref.epochs, err)
		}
	}}
	wrapAlgorithm(s, hook)

	r := rng.New(seed + 2)
	var recs []trace.Record
	var overflows, halfFulls, toFull, toDelta int
	lastFull, restored := false, false
	for e := 0; e < epochs; e++ {
		// A cycle of 50 epochs: three bursts past the journal's capacity
		// that also rebuild a wide backlog; twenty quiet epochs later, two
		// epochs that fit the journal but write more than half the cells
		// the matrix can hold; otherwise a handful of offers, small enough
		// to drain cells back to zero.
		direct, maxBits := r.Intn(4), int64(2*slotBits)
		switch e % 50 {
		case 0, 1, 2:
			direct, maxBits = 5*n, 40*slotBits
		case 22, 23:
			direct = 13 * n / 4
		}
		recs = recs[:0]
		for k := 0; k < direct; k++ {
			o := randomOffer(r, n, maxBits)
			ref.offer(o.src, o.dst, o.bits)
			if k%2 == 0 {
				if err := s.Offer(o.src, o.dst, o.bits); err != nil {
					t.Fatal(err)
				}
			} else {
				recs = append(recs, trace.Record{Src: uint16(o.src), Dst: uint16(o.dst), Size: uint32(o.bits)})
			}
		}
		if err := s.OfferRecords(recs); err != nil {
			t.Fatal(err)
		}
		hook.offers = hook.offers[:0]
		if e%3 == 0 {
			for k := r.Intn(6); k > 0; k-- {
				hook.offers = append(hook.offers, randomOffer(r, n, 2*slotBits))
			}
		}

		want := ref.step(hook.offers)
		// Only the Source's offers are still to come, and they fit what is
		// left of the journal in every epoch that has not overflowed it.
		overflowed := s.stale
		fullBefore, deltaBefore := s.ins.snapshotsFull.Value(), s.ins.schedulesDelta.Value()
		got, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != want.Epoch || got.Pairs != want.Pairs || got.ServedBits != want.ServedBits ||
			got.BacklogBits != want.BacklogBits || !got.Match.Equal(want.Match) {
			t.Fatalf("epoch %d: frame (pairs %d, served %d, backlog %d) differs from the reference's (pairs %d, served %d, backlog %d)",
				want.Epoch, got.Pairs, got.ServedBits, got.BacklogBits, want.Pairs, want.ServedBits, want.BacklogBits)
		}
		full := s.ins.snapshotsFull.Value() > fullBefore
		// An arbiter with the incremental face schedules from the change
		// list exactly when the boundary replayed: from scratch after every
		// overflow and (stale, hence full) on the epoch after Restore.
		if delta := s.ins.schedulesDelta.Value() > deltaBefore; delta != (s.delta != nil && !full) {
			t.Fatalf("epoch %d: delta schedule %v after a boundary with full copy %v (arbiter has the face: %v)",
				want.Epoch, delta, full, s.delta != nil)
		}
		if (overflowed || restored) && !full {
			t.Fatalf("epoch %d: boundary replayed after an overflow (%v) or a Restore (%v)", want.Epoch, overflowed, restored)
		}
		restored = false
		if e > 0 && full != lastFull {
			if full {
				toFull++
			} else {
				toDelta++
			}
		}
		lastFull = full
		switch {
		case overflowed:
			overflows++
		case full:
			halfFulls++
		}

		if e == epochs/2 {
			var blob bytes.Buffer
			if err := s.Snapshot(&blob); err != nil {
				t.Fatal(err)
			}
			if err := s.Restore(&blob); err != nil {
				t.Fatal(err)
			}
			ref.restore()
			restored = true
		}

		st := s.Stats()
		if st.Epochs != ref.epochs || st.IdleEpochs != ref.idle || st.OfferedBits != ref.offered ||
			st.ServedBits != ref.served || st.BacklogBits != ref.pending.Total() ||
			st.Offers != ref.offers || st.MatchedPairs != ref.pairs {
			t.Fatalf("epoch %d: Stats %+v differ from the reference's (epochs %d, idle %d, offered %d, served %d, backlog %d, offers %d, pairs %d)",
				want.Epoch, st, ref.epochs, ref.idle, ref.offered, ref.served, ref.pending.Total(), ref.offers, ref.pairs)
		}
	}
	if err := sameMatrix(s.pending, ref.pending); err != nil {
		t.Fatalf("pending demand after the run: %v", err)
	}
	if overflows == 0 || halfFulls == 0 || toFull == 0 || toDelta == 0 {
		t.Fatalf("run did not cover both boundaries: %d journal overflows, %d full copies of a journal that fit, %d switches to a full copy, %d back to replay",
			overflows, halfFulls, toFull, toDelta)
	}
	deltas, scratches := s.ins.schedulesDelta.Value(), s.ins.schedulesScratch.Value()
	if deltas+scratches != uint64(epochs) || (s.delta != nil) != (2*deltas > uint64(epochs)) {
		t.Fatalf("%d epochs scheduled %d times from the change list and %d times from scratch (arbiter has the face: %v)",
			epochs, deltas, scratches, s.delta != nil)
	}
	t.Logf("%d epochs: %d replayed, %d copied in full (%d journal overflows), %d+%d switches; %d delta schedules",
		epochs, s.ins.snapshotsDelta.Value(), s.ins.snapshotsFull.Value(), overflows, toFull, toDelta, deltas)
}
