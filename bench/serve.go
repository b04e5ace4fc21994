package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"time"

	"hybridsched"
	"hybridsched/internal/match"
)

// peersPerPort is the out-degree (and in-degree) of every port in the
// generated demand graph.
const peersPerPort = 8

// slotBits is the demand one matched pair drains per epoch; loads below
// are offered bits per port per epoch over this.
const slotBits = 12000

// serveSpec is one of the four in-process service workloads. They share
// one service and one demand layer and differ in which stage of the
// epoch dominates. All are closed loop with one caller — an offer burst,
// then Step — at an offered load below the service rate, so the backlog
// stays bounded.
type serveSpec struct {
	name           string
	ports          int
	alg            string
	offersPerEpoch int   // taken round-robin from the ports*peersPerPort cells
	bits           int64 // per offer
	warmup         int   // epochs of the untimed prefix; part of set-up
	block          int   // epochs per throughput sample
	countOffers    bool  // throughput_per_s counts offers, not epochs
}

var (
	// Ingest-dominated: every cell is offered every epoch (load 0.8), the
	// matcher is a small share. The profiled epoch of ROADMAP.md.
	serveIngest = serveSpec{name: "serve_ingest", ports: 512, alg: "islip",
		offersPerEpoch: 4096, bits: 1200, warmup: 1000, block: 400, countOffers: true}
	// Snapshot-dominated: tdma ignores demand, 256 small offers per epoch
	// keep ~15.9k of 16384 cells nonzero (each drains to zero on its TDMA
	// turn, once per 2047 epochs, and is re-inserted within 64), so the
	// epoch is the CopyFrom of a full matrix. Load 0.8.
	serveSnapshot = serveSpec{name: "serve_snapshot", ports: 2048, alg: "tdma",
		offersPerEpoch: 256, bits: 300, warmup: 2200, block: 200}
	// Matcher-dominated: one large offer per port per epoch to a rotating
	// peer (load 0.83), a weight-reading arbiter over a full snapshot.
	serveMatch = serveSpec{name: "serve_match", ports: 2048, alg: "ilqf",
		offersPerEpoch: 2048, bits: 10000, warmup: 400, block: 80}
	// Frame decomposition with compute-ahead, as serve enables it: cheap
	// playback epochs between expensive refills. Load 0.5; at 0.75 the
	// backlog diverges.
	serveFrames = serveSpec{name: "serve_frames", ports: 128, alg: "bvn",
		offersPerEpoch: 128, bits: 6000, warmup: 4000, block: 2000}
)

type cell struct{ src, dst int32 }

// buildCells generates the demand graph from the seed: every port sends
// to peersPerPort distinct peers and receives from as many, so input and
// output loads are equal and no output is overloaded by chance. The
// cells come in peersPerPort groups of one cell per port, ports shuffled
// and peer ranks staggered across ports: a group is not a permutation,
// so offers of one epoch contend for outputs, and the groups together
// hold every cell once.
func buildCells(ports int, seed uint64) []cell {
	r := rand.New(rand.NewSource(int64(seed)))
	relabel := r.Perm(ports)
	index := make([]int, ports)
	for i, p := range relabel {
		index[p] = i
	}
	shifts := r.Perm(ports - 1)[:peersPerPort] // distinct, and +1 makes them nonzero
	stagger := make([]int, ports)
	for i := range stagger {
		stagger[i] = r.Intn(peersPerPort)
	}
	cells := make([]cell, 0, ports*peersPerPort)
	for group := 0; group < peersPerPort; group++ {
		for _, src := range r.Perm(ports) {
			shift := shifts[(group+stagger[src])%peersPerPort]
			dst := relabel[(index[src]+shift+1)%ports]
			cells = append(cells, cell{int32(src), int32(dst)})
		}
	}
	return cells
}

// frameDigest hashes the frames of the untimed prefix: epoch, matching,
// served and backlog bits. Equal digests mean byte-equal schedules.
type frameDigest struct {
	h   hash.Hash
	buf []byte
}

func newFrameDigest() *frameDigest { return &frameDigest{h: sha256.New()} }

func (d *frameDigest) add(epoch uint64, m []int, served, backlog int64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], epoch)
	for _, out := range m {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(int32(out)))
	}
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(served))
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(backlog))
	d.h.Write(d.buf)
}

func (d *frameDigest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// shadow is the outside view of Step's interior: the same offers applied
// to a harness-owned matrix, the same algorithm with the same seed, and
// the same capped drain, each stage timed on its own. Its frames must
// equal the service's.
type shadow struct {
	pending, snap *hybridsched.DemandMatrix
	alg           match.Algorithm
	framer        interface{ Frames() int64 } // nil unless alg decomposes frames
	epoch         uint64
}

func newShadow(spec serveSpec, seed uint64) (*shadow, error) {
	// Service seeds shard 0 with DeriveSeed(seed, 0).
	alg, err := match.New(spec.alg, spec.ports, hybridsched.DeriveSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	s := &shadow{
		pending: hybridsched.NewDemandMatrix(spec.ports),
		snap:    hybridsched.NewDemandMatrix(spec.ports),
		alg:     alg,
	}
	// Compute-ahead stays off here: frames are identical either way, and a
	// synchronous refill is the decomposition's own cost rather than a
	// wait for a worker.
	s.framer, _ = alg.(interface{ Frames() int64 })
	return s, nil
}

// shadowEpoch is what one shadow epoch produced and how long each stage
// took (nanoseconds on the tracer's clock).
type shadowEpoch struct {
	match           hybridsched.Matching
	pairs           int
	served, backlog int64
	framesComputed  int64
	crossings       int // cells that went zero->nonzero or nonzero->zero
	tAdd, tCopy     int64
	tSched, tDrain  int64
	tEnd            int64
}

func (s *shadow) step(offers []cell, bits int64, clock func() int64) shadowEpoch {
	var e shadowEpoch
	e.tAdd = clock()
	nz := s.pending.NonZeros()
	for _, c := range offers {
		s.pending.Add(int(c.src), int(c.dst), bits)
	}
	e.crossings = s.pending.NonZeros() - nz
	e.tCopy = clock()
	s.snap.CopyFrom(s.pending)
	e.tSched = clock()
	var before int64
	if s.framer != nil {
		before = s.framer.Frames()
	}
	e.match = s.alg.Schedule(s.snap)
	if s.framer != nil {
		e.framesComputed = s.framer.Frames() - before
	}
	e.tDrain = clock()
	nz = s.pending.NonZeros()
	for in, out := range e.match {
		if out == hybridsched.Unmatched {
			continue
		}
		e.pairs++
		take := s.snap.At(in, out)
		if take > slotBits {
			take = slotBits
		}
		if take > 0 {
			s.pending.Add(in, out, -take)
			e.served += take
		}
	}
	e.backlog = s.pending.Total()
	e.crossings += nz - s.pending.NonZeros()
	e.tEnd = clock()
	s.epoch++
	return e
}

// serveRun is one constructed, warmed-up service and its input cursor.
type serveRun struct {
	spec   serveSpec
	res    *result
	svc    *hybridsched.Service
	cells  []cell
	cursor int
	burst  []cell // the offers of the current epoch
	epoch  uint64
	start  hybridsched.ServiceStats // after the untimed prefix
	sh     *shadow                  // nil in untraced runs
	offers int64

	framesComputed int64 // by the shadow's decomposer over the traced phase

	// Exact counts over the untimed prefix.
	digest, shadowDigest *frameDigest
	prefixPairs          int64
	prefixCrossings      int64
	prefixNonzeros       int
}

// setup generates the inputs, constructs the service and runs the
// untimed prefix: spec.warmup epochs that bring the backlog to its
// steady state and produce the frames digest.
func setupServe(cfg runConfig, spec serveSpec, res *result) (*serveRun, error) {
	svc, err := hybridsched.NewService(hybridsched.ServiceConfig{
		Ports: spec.ports, Algorithm: spec.alg, Seed: cfg.seed, SlotBits: slotBits,
	})
	if err != nil {
		return nil, err
	}
	r := &serveRun{
		spec:   spec,
		res:    res,
		svc:    svc,
		cells:  buildCells(spec.ports, cfg.seed),
		burst:  make([]cell, spec.offersPerEpoch),
		digest: newFrameDigest(),
	}
	if cfg.trace {
		if r.sh, err = newShadow(spec, cfg.seed); err != nil {
			svc.Close()
			return nil, err
		}
		r.shadowDigest = newFrameDigest()
	}
	for i := 0; i < cfg.scaled(spec.warmup, 50); i++ {
		r.offerBurst()
		f, err := r.step()
		if err != nil {
			svc.Close()
			return nil, err
		}
		r.digest.add(f.Epoch, f.Match, f.ServedBits, f.BacklogBits)
		r.prefixPairs += int64(f.Pairs)
		if r.sh != nil {
			e := r.sh.step(r.burst, spec.bits, func() int64 { return 0 })
			r.compare(f, e)
			r.shadowDigest.add(r.sh.epoch, e.match, e.served, e.backlog)
			r.prefixCrossings += int64(e.crossings)
			r.prefixNonzeros = r.sh.pending.NonZeros()
		}
	}
	r.start = svc.Stats()[0]
	return r, nil
}

// offerBurst offers the next spec.offersPerEpoch cells.
func (r *serveRun) offerBurst() {
	for i := range r.burst {
		c := r.cells[r.cursor]
		if r.cursor++; r.cursor == len(r.cells) {
			r.cursor = 0
		}
		r.burst[i] = c
		if err := r.svc.Offer(int(c.src), int(c.dst), hybridsched.Size(r.spec.bits)); err != nil {
			r.res.failed++
		}
	}
	r.offers += int64(len(r.burst))
}

func (r *serveRun) step() (hybridsched.ServiceFrame, error) {
	frames, err := r.svc.Step()
	if err != nil {
		r.res.failed++
		return hybridsched.ServiceFrame{}, fmt.Errorf("%s: Step: %w", r.spec.name, err)
	}
	r.epoch++
	return frames[0], nil
}

// check validates one service frame.
func (r *serveRun) check(f hybridsched.ServiceFrame) {
	if err := f.Match.Validate(); err != nil {
		r.res.failf("epoch %d: %v", f.Epoch, err)
	}
	if f.Epoch != r.epoch {
		r.res.failf("frame numbered %d at epoch %d", f.Epoch, r.epoch)
	}
}

// compare checks a service frame against the shadow pipeline's.
func (r *serveRun) compare(f hybridsched.ServiceFrame, e shadowEpoch) {
	if !f.Match.Equal(e.match) || f.Pairs != e.pairs || f.ServedBits != e.served || f.BacklogBits != e.backlog {
		r.res.failf("epoch %d: service frame (pairs %d, served %d, backlog %d) differs from the shadow pipeline's (pairs %d, served %d, backlog %d)",
			f.Epoch, f.Pairs, f.ServedBits, f.BacklogBits, e.pairs, e.served, e.backlog)
	}
}

// timedBlocks calls block, which does a fixed amount of work, until d has
// passed, and returns one work-per-second sample per call. Reported
// figures are medians over these samples, which a stall in one block
// does not move.
func timedBlocks(d time.Duration, work float64, block func() error) (perSec []float64, err error) {
	start := time.Now()
	for blockStart := start; blockStart.Sub(start) < d; {
		if err := block(); err != nil {
			return nil, err
		}
		now := time.Now()
		perSec = append(perSec, work/now.Sub(blockStart).Seconds())
		blockStart = now
	}
	return perSec, nil
}

// plain runs untraced epochs for d: one clock pair per epoch, around
// Step, and per block of epochs one throughput sample and the median
// Step time. Keeping only a block of samples at a time holds the
// harness's own memory, which peak_rss_mb includes, small and fixed.
func (r *serveRun) plain(d time.Duration, block int) (stepP50NS, perSec []float64, err error) {
	stepNS := make([]float64, block)
	work := float64(block)
	if r.spec.countOffers {
		work *= float64(r.spec.offersPerEpoch)
	}
	perSec, err = timedBlocks(d, work, func() error {
		for i := range stepNS {
			r.offerBurst()
			t0 := time.Now()
			f, err := r.step()
			stepNS[i] = float64(time.Since(t0))
			if err != nil {
				return err
			}
			r.check(f)
		}
		stepP50NS = append(stepP50NS, median(stepNS))
		return nil
	})
	return stepP50NS, perSec, err
}

// traced runs epochs for d with the shadow pipeline in lockstep and a
// span around every call into a layer.
func (r *serveRun) traced(tr *tracer, d time.Duration) (refillNS []float64, err error) {
	for start := tr.now(); tr.now()-start < int64(d); {
		id := int64(r.epoch + 1)
		t0 := tr.now()
		r.offerBurst()
		t1 := tr.now()
		f, err := r.step()
		t2 := tr.now()
		if err != nil {
			return nil, err
		}
		e := r.sh.step(r.burst, r.spec.bits, tr.now)
		r.check(f)
		r.compare(f, e)
		t3 := tr.now()
		tr.add(spEpoch, id, t0, t3)
		tr.add(spServeOffer, id, t0, t1)
		tr.add(spServeStep, id, t1, t2)
		tr.add(spShadow, id, e.tAdd, e.tEnd)
		tr.add(spDemandAdd, id, e.tAdd, e.tCopy)
		tr.add(spDemandCopyFrom, id, e.tCopy, e.tSched)
		tr.add(spMatchSchedule, id, e.tSched, e.tDrain)
		tr.add(spDemandDrain, id, e.tDrain, e.tEnd)
		tr.add(spCheck, id, e.tEnd, t3)
		if e.framesComputed > 0 {
			refillNS = append(refillNS, float64(e.tDrain-e.tSched))
			r.framesComputed += e.framesComputed
		}
	}
	return refillNS, nil
}

// conservation checks OfferedBits = ServedBits + BacklogBits and, when
// the prefix was long enough to reach the steady state (steady), that
// the backlog stayed bounded.
func (r *serveRun) conservation(steady bool) {
	st := r.svc.Stats()[0]
	if st.OfferedBits != st.ServedBits+st.BacklogBits {
		r.res.failf("conservation: offered %d != served %d + backlog %d", st.OfferedBits, st.ServedBits, st.BacklogBits)
	}
	if want := r.offers * r.spec.bits; st.OfferedBits != want {
		r.res.failf("service counted %d offered bits, the harness offered %d", st.OfferedBits, want)
	}
	// The closed-loop precondition: the measured phase served what it was
	// offered, so the backlog it started with did not grow without bound.
	offered, served := st.OfferedBits-r.start.OfferedBits, st.ServedBits-r.start.ServedBits
	if steady && float64(served) < 0.98*float64(offered) {
		r.res.failf("served %d of %d bits offered after the prefix: offered load is above service rate", served, offered)
	}
}

// setupTimes repeats a workload's set-up and returns the median time and
// the last instance, which the measured phase then uses. The earlier
// ones are torn down, so set-up is measured the way a restart pays it.
func setupTimes[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	const repeats = 3
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == repeats-1 {
			return v, median(times), nil
		}
		teardown(v)
	}
}

func runServe(cfg runConfig, spec serveSpec) (*result, error) {
	res := newResult()
	r, setupS, err := setupTimes(
		func() (*serveRun, error) { return setupServe(cfg, spec, res) },
		func(r *serveRun) { r.svc.Close() })
	if err != nil {
		return nil, err
	}
	defer r.svc.Close()
	block := cfg.scaled(spec.block, 10)
	measure := time.Duration(cfg.seconds * float64(time.Second))
	res.exact["frames_digest"] = r.digest.hex()
	res.exact["prefix_epochs"] = fmt.Sprint(r.epoch)
	res.exact["prefix_pairs"] = fmt.Sprint(r.prefixPairs)

	if !cfg.trace {
		stepP50NS, perSec, err := r.plain(measure, block)
		if err != nil {
			return nil, err
		}
		r.conservation(cfg.scale == 1)
		rss, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return nil, err
		}
		res.metrics["setup_s"] = setupS
		res.metrics["throughput_per_s"] = median(perSec)
		res.metrics["latency_us_p50"] = median(stepP50NS) / 1e3
		res.metrics["peak_rss_mb"] = rss
		res.notef("throughput_per_s counts %s; median of %d blocks of %d epochs", map[bool]string{true: "offers", false: "epochs"}[spec.countOffers], len(perSec), block)
		res.notef("latency_us_p50 is the Step call alone; median of the blocks' medians, %d samples", len(perSec)*block)
		res.attempted = r.offers + int64(r.epoch)
		return res, nil
	}

	// Traced run: three quarters of the time with spans and the shadow
	// pipeline, then the plain loop on the same service for the tracing
	// overhead.
	if got, want := r.shadowDigest.hex(), r.digest.hex(); got != want {
		res.failf("shadow pipeline frames digest %s differs from the service's %s", got, want)
	}
	tr := newTracer()
	epochs0, offers0 := r.epoch, r.offers
	refillNS, err := r.traced(tr, measure*3/4)
	if err != nil {
		return nil, err
	}
	epochs, offers := float64(r.epoch-epochs0), float64(r.offers-offers0)
	_, perSec, err := r.plain(measure/4, block)
	if err != nil {
		return nil, err
	}
	r.conservation(cfg.scale == 1)

	stepTotal := tr.total(spServeStep)
	copyNS, schedNS, drainNS := tr.durations(spDemandCopyFrom), tr.durations(spMatchSchedule), tr.durations(spDemandDrain)
	other := tr.durations(spServeStep)
	for i := range other {
		other[i] -= copyNS[i] + schedNS[i] + drainNS[i]
	}
	m := res.metrics
	m["serve.offer_ns"] = tr.total(spServeOffer) / offers
	m["serve.step_us_p99"] = p99(res, "serve.step_us_p99", tr.durations(spServeStep)) / 1e3
	m["serve.step_other_us_p50"] = median(other) / 1e3
	m["serve.accounted_frac"] = (sum(copyNS) + sum(schedNS) + sum(drainNS)) / stepTotal
	m["demand.add_ns"] = tr.total(spDemandAdd) / offers
	m["demand.copyfrom_us_p50"] = median(copyNS) / 1e3
	m["demand.drain_us_p50"] = median(drainNS) / 1e3
	m["demand.nonzeros"] = float64(r.prefixNonzeros)
	m["demand.zero_crossings_per_epoch"] = float64(r.prefixCrossings) / float64(epochs0)
	m["match.schedule_us_p99"] = p99(res, "match.schedule_us_p99", schedNS) / 1e3
	m["match.schedule_us_p50"] = median(schedNS) / 1e3
	m["match.pairs_per_epoch"] = float64(r.prefixPairs) / float64(epochs0)
	if r.sh.framer != nil {
		m["match.frames_computed"] = float64(r.framesComputed)
		m["match.refill_us_p50"] = median(refillNS) / 1e3
		m["match.refill_frac"] = sum(refillNS) / tr.total(spShadow)
	}
	// The traced rate counts the time inside the offer and Step spans only,
	// not the shadow pipeline's or the checks', which are not tracing: what
	// is left is the clock reads and what the shadow does to the caches.
	tracedS := (tr.total(spServeOffer) + stepTotal) / 1e9
	tracedRate := epochs / tracedS
	if spec.countOffers {
		tracedRate = offers / tracedS
	}
	m["trace.overhead_frac"] = 1 - tracedRate/median(perSec)
	res.exact["demand.nonzeros"] = fmt.Sprint(r.prefixNonzeros)
	res.exact["prefix_zero_crossings"] = fmt.Sprint(r.prefixCrossings)
	res.notef("traced phase: %.0f epochs; shares of the cycle (offer burst + Step): offers %.1f%%, Step %.1f%%; shares of Step by the shadow's stages: CopyFrom %.1f%%, Schedule %.1f%%, drain %.1f%%",
		epochs, 100*tr.total(spServeOffer)/(tr.total(spServeOffer)+stepTotal), 100*stepTotal/(tr.total(spServeOffer)+stepTotal),
		100*sum(copyNS)/stepTotal, 100*sum(schedNS)/stepTotal, 100*sum(drainNS)/stepTotal)
	res.attempted = r.offers + int64(r.epoch)
	return res, finishTrace(tr, cfg, spec.name, res)
}
