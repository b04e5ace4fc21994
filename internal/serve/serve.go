// Package serve runs the paper's scheduling loop — estimate demand,
// compute a matching, apply it, repeat — as a long-lived concurrent
// service instead of a finite simulation. Where internal/runner executes
// closed scenarios to completion, a serve.Scheduler never terminates on
// its own: demand arrives as streaming deltas (Offer / OfferRecords, or a
// pluggable Source such as the flow-level workload generators), a
// registered matching algorithm runs once per epoch, and the computed
// frames stream to any number of subscribers over bounded channels with
// an explicit drop policy.
//
// The epoch hot path rides the sparse demand core: the pending matrix and
// its per-epoch snapshot are pooled demand.Matrix values, the algorithm
// reuses its per-instance scratch, and publishing is skipped when nobody
// subscribes — one epoch at fabric port counts is allocation-free in
// steady state for the per-slot arbiters (BenchmarkServeEpoch).
//
// The snapshot is kept, not rebuilt: every write to the pending matrix
// also appends its cell to a bounded journal, and the epoch boundary
// replays the journal into the snapshot, so a boundary costs what
// changed since the last one rather than what exists. When the journal
// overflowed, after Restore, or when it is long against the matrix's
// nonzero count, the boundary is one full copy instead (syncSnapshot,
// BenchmarkServeBoundary).
//
// Scheduler state checkpoints through the existing HSTR trace machinery
// (Snapshot/Restore): the pending backlog serializes as ordinary trace
// records, so a live service can be checkpointed, shipped, and restored
// deterministically with the same tooling that captures workloads.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybridsched/internal/demand"
	"hybridsched/internal/match"
	"hybridsched/internal/metrics"
	"hybridsched/internal/trace"
)

// DefaultSlotBits is the demand served per matched pair per epoch when
// Config.SlotBits is zero: one 1500-byte frame.
const DefaultSlotBits int64 = 1500 * 8

// ErrClosed is returned by operations on a closed Scheduler.
var ErrClosed = errors.New("serve: scheduler is closed")

// Source feeds the scheduler live demand. Advance is called once at the
// start of every epoch, on the stepping goroutine, and reports one
// epoch's worth of new offered load through offer. The flow-level
// workload generators plug in via NewWorkloadSource.
type Source interface {
	Advance(offer func(src, dst int, bits int64))
}

// Config parameterizes a Scheduler.
type Config struct {
	// Ports is the fabric port count (the demand matrix dimension).
	Ports int
	// Algorithm names the matching algorithm, built-in or registered.
	Algorithm string
	// Seed seeds randomized algorithms.
	Seed uint64
	// SlotBits is the demand served per matched (input, output) pair per
	// epoch — the product of the transmission window and the circuit
	// rate. Zero selects DefaultSlotBits.
	SlotBits int64
	// Source, when non-nil, is advanced one epoch before each schedule
	// computation — the push-free way to drive the service from a
	// workload generator.
	Source Source
	// Shard labels the scheduler's frames and metrics in multi-instance
	// services. NewSharded sets it per shard; standalone schedulers leave
	// it zero.
	Shard int
	// Metrics, when non-nil, is the registry this scheduler's instruments
	// register in: epoch latency, throughput, backlog, and drop metrics,
	// labeled by shard. Recording is allocation-free, so instrumentation
	// does not perturb the epoch hot path. Nil disables instrumentation.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.SlotBits == 0 {
		c.SlotBits = DefaultSlotBits
	}
	return c
}

// Validate checks the configuration without building anything.
func (c Config) Validate() error {
	if c.Ports < 2 {
		return fmt.Errorf("serve: need at least 2 ports, have %d", c.Ports)
	}
	if !match.Known(c.Algorithm) {
		return fmt.Errorf("serve: unknown algorithm %q (have %v)", c.Algorithm, match.Names())
	}
	if c.SlotBits < 0 {
		return fmt.Errorf("serve: SlotBits must be non-negative")
	}
	if c.Shard < 0 {
		return fmt.Errorf("serve: Shard must be non-negative, have %d", c.Shard)
	}
	return nil
}

// Frame is one epoch's scheduling decision.
type Frame struct {
	// Epoch numbers the decision, starting at 1 for the first Step.
	Epoch uint64
	// Shard identifies the fabric shard in multi-instance services.
	Shard int
	// Match is the computed crossbar configuration. Frames returned by
	// Step share the algorithm's scratch and are valid until the next
	// Step; StepOwned and Sharded.Step return caller-owned clones, and
	// frames delivered to subscribers are cloned too (treat those as
	// read-only — the clone is shared between subscribers).
	Match match.Matching
	// Pairs is the number of matched (input, output) pairs.
	Pairs int
	// ServedBits is the demand drained by this frame, capped per pair at
	// SlotBits.
	ServedBits int64
	// BacklogBits is the total pending demand remaining after the frame.
	BacklogBits int64
}

// Stats is a point-in-time summary of a scheduler's activity. The
// metric-backed fields (Offers, MatchedPairs, and the epoch-latency
// percentiles) are populated only when the scheduler was built with
// Config.Metrics; without a registry they stay zero.
type Stats struct {
	Epochs      uint64
	IdleEpochs  uint64 // epochs with an empty matching
	OfferedBits int64
	ServedBits  int64
	BacklogBits int64
	Subscribers int
	Dropped     uint64 // frames dropped across all subscriptions, ever

	// Offers counts ingested demand offers (streaming calls, batch
	// records, and source-driven offers each count once).
	Offers uint64
	// MatchedPairs counts matched (input, output) pairs across all epochs.
	MatchedPairs uint64
	// EpochNsP50/P99/P999 are upper bounds on the epoch wall-clock latency
	// percentiles in nanoseconds, from the fixed-bucket histogram
	// (quantization error <= 12.5%).
	EpochNsP50  int64
	EpochNsP99  int64
	EpochNsP999 int64
}

// Scheduler is the online scheduling service for one fabric. Create with
// New; feed it with Offer/OfferRecords or a Source; advance it with Step
// (manual, deterministic) or Run (wall-clock epochs); consume frames
// with Subscribe. All methods are safe for concurrent use.
type Scheduler struct {
	cfg   Config
	shard int
	alg   match.Algorithm
	ins   *instruments // nil when Config.Metrics is nil

	// framer is alg when it exposes a frame counter (the frame
	// decomposition schedulers) and delta is alg when it schedules from a
	// change list (match.Change); both are asserted by setAlgorithm, not
	// per step. Nil for arbiters without the face.
	framer interface{ Frames() int64 }
	delta  deltaScheduler

	mu      sync.Mutex // guards pending, the journal, the bit counters and closed
	pending *demand.Matrix
	closed  bool
	offered int64
	served  int64

	// journal lists the cells written in pending since the last epoch
	// boundary (duplicates allowed): snap differs from pending at those
	// cells only. Its capacity is fixed at construction; a write that does
	// not fit sets stale instead, and the next boundary copies in full.
	journal []cell
	stale   bool

	// sourceOffer is offerFromSource bound once at construction, so the
	// epoch loop can hand Source.Advance a callback without allocating a
	// closure per step.
	sourceOffer func(src, dst int, bits int64)

	stepMu sync.Mutex // serializes epochs
	snap   *demand.Matrix
	// changes is what the last boundary replay wrote into snap, cell by
	// cell with the value written — the change list of a delta arbiter.
	// Journal-sized and allocated once; nil when alg has no such face.
	changes []match.Change

	epochs atomic.Uint64
	idle   atomic.Uint64

	subMu   sync.Mutex
	subs    []*Subscription
	dropped atomic.Uint64

	done chan struct{}
}

// New validates cfg and assembles a scheduler.
func New(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	alg, err := match.New(cfg.Algorithm, cfg.Ports, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:     cfg,
		shard:   cfg.Shard,
		pending: demand.FromPool(cfg.Ports),
		snap:    demand.FromPool(cfg.Ports),
		journal: make([]cell, 0, journalPerPort*cfg.Ports),
		done:    make(chan struct{}),
	}
	if cfg.Metrics != nil {
		s.ins = newInstruments(cfg.Metrics, cfg.Shard)
	}
	s.sourceOffer = s.offerFromSource
	s.setAlgorithm(alg)
	return s, nil
}

// deltaScheduler is the optional incremental face of a match.Algorithm;
// match.Change states its contract.
type deltaScheduler interface {
	ScheduleDelta(d *demand.Matrix, changed []match.Change) match.Matching
}

// setAlgorithm installs alg and derives everything the scheduler learns
// from its optional faces in one place, so no assertion made earlier can
// outlive a swap (the in-package tests wrap the algorithm after New).
func (s *Scheduler) setAlgorithm(alg match.Algorithm) {
	s.alg = alg
	s.framer, _ = alg.(interface{ Frames() int64 })
	s.delta, _ = alg.(deltaScheduler)
	if s.delta != nil && s.changes == nil {
		s.changes = make([]match.Change, 0, cap(s.journal))
	}
}

// Ports returns the fabric port count.
func (s *Scheduler) Ports() int { return s.cfg.Ports }

// Epoch returns the number of completed epochs.
func (s *Scheduler) Epoch() uint64 { return s.epochs.Load() }

// Offer adds bits of pending demand from src to dst — the streaming
// ingest path. It is cheap (one sparse matrix update under a mutex) and
// safe to call from any number of goroutines.
func (s *Scheduler) Offer(src, dst int, bits int64) error {
	if src < 0 || src >= s.cfg.Ports || dst < 0 || dst >= s.cfg.Ports {
		return fmt.Errorf("serve: offer (%d->%d) outside the %d-port fabric", src, dst, s.cfg.Ports)
	}
	if bits < 0 {
		return fmt.Errorf("serve: offer (%d->%d) of negative demand %d", src, dst, bits)
	}
	if bits == 0 || src == dst {
		return nil // self-traffic never crosses the fabric
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.addPending(src, dst, bits)
	s.offered += bits
	if s.ins != nil {
		s.ins.observeOffer(bits)
	}
	s.mu.Unlock()
	return nil
}

// OfferRecords ingests a batch of HSTR trace records as demand — the
// bridge from captured workloads to the live service. Record times are
// ignored (the service is open-loop); sizes accumulate as offered bits.
// Records are validated first, so a failed batch offers nothing.
func (s *Scheduler) OfferRecords(recs []trace.Record) error {
	for i, r := range recs {
		if int(r.Src) >= s.cfg.Ports || int(r.Dst) >= s.cfg.Ports {
			return fmt.Errorf("serve: record %d ports (%d->%d) outside the %d-port fabric",
				i, r.Src, r.Dst, s.cfg.Ports)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	var total int64
	var n uint64
	for _, r := range recs {
		if r.Src == r.Dst {
			continue
		}
		s.addPending(int(r.Src), int(r.Dst), int64(r.Size))
		total += int64(r.Size)
		n++
	}
	s.offered += total
	if s.ins != nil {
		s.ins.offers.Add(n)
		s.ins.offeredBits.Add(uint64(total))
	}
	return nil
}

// offerLocked is the Source ingest path: called on the stepping goroutine
// with s.mu already held, bounds pre-checked by the matrix itself.
func (s *Scheduler) offerLocked(src, dst int, bits int64) {
	if bits <= 0 || src == dst ||
		src < 0 || src >= s.cfg.Ports || dst < 0 || dst >= s.cfg.Ports {
		return
	}
	s.addPending(src, dst, bits)
	s.offered += bits
	if s.ins != nil {
		s.ins.observeOffer(bits)
	}
}

// offerFromSource ingests one Source-generated offer under the demand
// lock. It is the target of the prebound sourceOffer field.
//
//hybridsched:hotpath
func (s *Scheduler) offerFromSource(src, dst int, bits int64) {
	s.mu.Lock()
	if !s.closed {
		s.offerLocked(src, dst, bits)
	}
	s.mu.Unlock()
}

// cell is one journaled write to the pending matrix.
type cell struct{ src, dst int32 }

// journalPerPort sizes the write journal: journalPerPort*Ports cells,
// allocated once, so its memory is bounded whatever the offered load. An
// epoch that writes more than that takes the full copy.
const journalPerPort = 4

// addPending is the only writer of the pending matrix between Restores:
// it applies the delta and journals the cell so the next epoch boundary
// can bring the snapshot up to date without a full copy. The caller
// holds s.mu.
func (s *Scheduler) addPending(src, dst int, delta int64) {
	s.pending.Add(src, dst, delta)
	if len(s.journal) == cap(s.journal) {
		s.stale = true
		return
	}
	s.journal = append(s.journal, cell{int32(src), int32(dst)})
}

// syncSnapshot makes snap equal to pending at the epoch boundary and
// reports how many cells it wrote and whether it copied in full. Replay
// writes pending's current value at every journaled cell — Set keeps the
// snapshot's column lists, bitsets and sums itself, so order and
// duplicates do not matter. A full copy is taken when the journal missed
// a write (overflow, Restore) or when replay would touch more than half
// of pending's nonzeros, where the sequential copy is the faster of the
// two. A replay also leaves what it wrote in s.changes when the arbiter
// schedules from a change list. The caller holds s.stepMu and s.mu.
func (s *Scheduler) syncSnapshot() (cells int, full bool) {
	cells = len(s.journal)
	full = s.stale || 2*cells > s.pending.NonZeros()
	s.changes = s.changes[:0]
	if full {
		s.snap.CopyFrom(s.pending)
		cells = s.pending.NonZeros()
	} else {
		for _, c := range s.journal {
			v := s.pending.At(int(c.src), int(c.dst))
			s.snap.Set(int(c.src), int(c.dst), v)
			if s.delta != nil {
				s.changes = append(s.changes, match.Change{In: c.src, Out: c.dst, Value: v})
			}
		}
	}
	s.journal = s.journal[:0]
	s.stale = false
	return cells, full
}

// Step runs one epoch synchronously: advance the Source (if any),
// snapshot pending demand, run the algorithm, drain what the matching
// serves, and publish the frame to subscribers. The returned Frame's
// Match shares the algorithm's scratch and is valid until the next Step;
// use StepOwned (or Clone it before another Step can run) to keep it.
// Step is the deterministic way to drive the service (tests, replay);
// Run wraps it in a wall-clock loop.
//
//hybridsched:hotpath
func (s *Scheduler) Step() (Frame, error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.step()
}

// StepOwned is Step returning a caller-owned frame: the matching is
// cloned before the step lock is released, so it can never be rewritten
// by a later epoch. This is the step the fan-out and network layers use;
// Step itself stays allocation-free for single-owner hot loops.
func (s *Scheduler) StepOwned() (Frame, error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	f, err := s.step()
	if err == nil {
		f.Match = f.Match.Clone()
	}
	return f, err
}

// step runs one epoch; the caller holds stepMu.
func (s *Scheduler) step() (Frame, error) {
	var t0 time.Time
	if s.ins != nil {
		t0 = stepStart()
	}
	if s.cfg.Source != nil {
		// The source runs outside the demand lock: generators may do
		// real work (simulating an epoch of arrivals), and offers are
		// taken one at a time like any other producer.
		s.cfg.Source.Advance(s.sourceOffer)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Frame{}, ErrClosed
	}
	var tb time.Time
	if s.ins != nil {
		tb = stepStart()
	}
	cells, full := s.syncSnapshot()
	s.mu.Unlock()
	if s.ins != nil {
		s.ins.observeSnapshot(stepElapsed(tb), cells, full)
	}

	m := s.schedule(s.snap, full)

	// Drain served demand from the live matrix. Offers since the snapshot
	// only add, and this is the only subtractor, so pending >= snap holds
	// for every pair being drained. The drain is journaled like any other
	// write; the next boundary applies it to the snapshot.
	var servedBits int64
	var pairs int
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Frame{}, ErrClosed
	}
	for in, out := range m {
		if out == match.Unmatched {
			continue
		}
		pairs++
		take := s.snap.At(in, out)
		if take > s.cfg.SlotBits {
			take = s.cfg.SlotBits
		}
		if take > 0 {
			s.addPending(in, out, -take)
			servedBits += take
		}
	}
	backlog := s.pending.Total()
	s.served += servedBits
	s.mu.Unlock()

	epoch := s.epochs.Add(1)
	if pairs == 0 {
		s.idle.Add(1)
	}
	f := Frame{
		Epoch:       epoch,
		Shard:       s.shard,
		Match:       m,
		Pairs:       pairs,
		ServedBits:  servedBits,
		BacklogBits: backlog,
	}
	s.publish(f)
	if s.ins != nil {
		s.ins.observeEpoch(stepElapsed(t0), pairs, servedBits, backlog)
	}
	return f, nil
}

// schedule runs the matching algorithm on the epoch's snapshot: from the
// boundary's change list when the boundary replayed the journal and the
// arbiter takes one, from scratch otherwise — the boundary decides, there
// is nothing to configure. With instrumentation enabled it records the
// call's latency and path, and for frame decomposition algorithms
// attributes decomposition work: when the call computed a frame (a
// refill), its latency also lands in the frame-decompose histogram and
// the frame counter advances; pure playback epochs record nothing there. Recording is atomic updates on
// pre-registered instruments — allocation-free.
//
//hybridsched:hotpath
func (s *Scheduler) schedule(snap *demand.Matrix, full bool) match.Matching {
	delta := s.delta != nil && !full
	if s.ins == nil {
		return s.runAlgorithm(snap, delta)
	}
	var before int64
	if s.framer != nil {
		before = s.framer.Frames()
	}
	t0 := stepStart()
	m := s.runAlgorithm(snap, delta)
	elapsed := stepElapsed(t0)
	s.ins.observeSchedule(elapsed, delta, len(s.changes))
	if s.framer != nil {
		if computed := s.framer.Frames() - before; computed > 0 {
			s.ins.observeFrames(elapsed, computed)
		}
	}
	return m
}

func (s *Scheduler) runAlgorithm(snap *demand.Matrix, delta bool) match.Matching {
	if delta {
		return s.delta.ScheduleDelta(snap, s.changes)
	}
	return s.alg.Schedule(snap)
}

// Run steps one epoch per interval tick of wall-clock time until ctx is
// canceled or the scheduler is closed. It returns ctx.Err() on
// cancellation and nil when stopped by Close. Wall-clock pacing is Run's
// whole contract — determinism lives in Step, which Run merely paces.
//
//hybridsched:wallclock
func (s *Scheduler) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("serve: Run interval must be positive, have %v", interval)
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.done:
			return nil
		case <-tick.C:
			if _, err := s.Step(); err != nil {
				if errors.Is(err, ErrClosed) {
					return nil
				}
				return err
			}
		}
	}
}

// Stats returns a point-in-time activity summary.
func (s *Scheduler) Stats() Stats {
	// Offered, served and backlog are one cut under the demand lock, so
	// OfferedBits == ServedBits + BacklogBits holds in every Stats.
	s.mu.Lock()
	backlog := int64(0)
	if !s.closed {
		backlog = s.pending.Total()
	}
	offered, served := s.offered, s.served
	s.mu.Unlock()
	s.subMu.Lock()
	subs := len(s.subs)
	s.subMu.Unlock()
	st := Stats{
		Epochs:      s.epochs.Load(),
		IdleEpochs:  s.idle.Load(),
		OfferedBits: offered,
		ServedBits:  served,
		BacklogBits: backlog,
		Subscribers: subs,
		Dropped:     s.dropped.Load(),
	}
	if s.ins != nil {
		st.Offers = s.ins.offers.Value()
		st.MatchedPairs = s.ins.matchedPairs.Value()
		lat := s.ins.epochLatency.Snapshot()
		st.EpochNsP50 = lat.Quantile(0.5)
		st.EpochNsP99 = lat.Quantile(0.99)
		st.EpochNsP999 = lat.Quantile(0.999)
	}
	return st
}

// Close stops the scheduler: pending demand returns to the matrix pool,
// every subscription's channel is closed, and all further operations
// return ErrClosed. Close is idempotent.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	s.pending.Release()
	s.pending = nil
	s.mu.Unlock()

	// The snapshot scratch is only touched under stepMu; taking it here
	// fences out any in-flight Step before recycling.
	s.stepMu.Lock()
	s.snap.Release()
	s.snap = nil
	s.stepMu.Unlock()

	s.subMu.Lock()
	subs := s.subs
	s.subs = nil
	for _, sub := range subs {
		sub.closed = true
		close(sub.ch)
	}
	if s.ins != nil {
		s.ins.subscribers.Set(0)
	}
	s.subMu.Unlock()
	return nil
}

// DropPolicy says what a full subscription buffer does with a new frame.
type DropPolicy uint8

const (
	// DropOldest evicts the oldest buffered frame to make room — the
	// subscriber always converges to the freshest schedule. The default.
	DropOldest DropPolicy = iota
	// DropNewest discards the incoming frame — the subscriber sees a
	// contiguous prefix, then gaps.
	DropNewest
)

func (p DropPolicy) String() string {
	if p == DropNewest {
		return "drop-newest"
	}
	return "drop-oldest"
}

// Subscription is one subscriber's bounded frame stream.
type Subscription struct {
	s       *Scheduler
	ch      chan Frame
	policy  DropPolicy
	dropped atomic.Uint64
	closed  bool // guarded by s.subMu
}

// MaxSubscriptionBuffer is the deepest frame buffer Subscribe grants. The
// depth arrives from outside the process (the daemon's subscribe op), and
// the channel is allocated up front: unbounded, one request line could
// exhaust memory or panic makechan.
const MaxSubscriptionBuffer = 4096

// Subscribe registers a frame stream with the given buffer depth
// (minimum 1, at most MaxSubscriptionBuffer — more is an error, not
// clamped) and drop policy. The scheduler never blocks on a slow
// subscriber: when the buffer is full the policy decides which frame is
// dropped, and Dropped counts the casualties. The channel is closed by
// Subscription.Close or Scheduler.Close.
func (s *Scheduler) Subscribe(buffer int, policy DropPolicy) (*Subscription, error) {
	if buffer < 1 {
		buffer = 1
	}
	if buffer > MaxSubscriptionBuffer {
		return nil, fmt.Errorf("serve: subscription buffer %d exceeds the maximum %d", buffer, MaxSubscriptionBuffer)
	}
	sub := &Subscription{s: s, ch: make(chan Frame, buffer), policy: policy}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	select {
	case <-s.done:
		return nil, ErrClosed
	default:
	}
	s.subs = append(s.subs, sub)
	if s.ins != nil {
		s.ins.subscribers.Set(int64(len(s.subs)))
	}
	return sub, nil
}

// Frames returns the receive side of the stream.
func (sub *Subscription) Frames() <-chan Frame { return sub.ch }

// Dropped returns how many frames this subscription has dropped.
func (sub *Subscription) Dropped() uint64 { return sub.dropped.Load() }

// Close unsubscribes and closes the channel. Buffered frames may be lost.
// Close is idempotent and safe concurrently with the scheduler stepping.
func (sub *Subscription) Close() {
	sub.s.subMu.Lock()
	defer sub.s.subMu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	for i, x := range sub.s.subs {
		if x == sub {
			sub.s.subs = append(sub.s.subs[:i], sub.s.subs[i+1:]...)
			break
		}
	}
	if sub.s.ins != nil {
		sub.s.ins.subscribers.Set(int64(len(sub.s.subs)))
	}
	close(sub.ch)
}

// publish fans a frame out to every subscription. Sends happen under
// subMu — the same lock Close takes — so a send never races a close; all
// sends are non-blocking, so holding the lock is bounded. The matching is
// cloned once per epoch and shared read-only between subscribers; with no
// subscribers the epoch stays allocation-free.
//
//hybridsched:alloc-ok fan-out clones the matching once per epoch by design
func (s *Scheduler) publish(f Frame) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if len(s.subs) == 0 {
		return
	}
	f.Match = f.Match.Clone()
	for _, sub := range s.subs {
		select {
		case sub.ch <- f:
			continue
		default:
		}
		if sub.policy == DropOldest {
			select {
			case <-sub.ch:
				sub.dropped.Add(1)
				s.dropped.Add(1)
				if s.ins != nil {
					s.ins.observeDrop(sub.policy)
				}
			default:
			}
			select {
			case sub.ch <- f:
				continue
			default:
			}
		}
		sub.dropped.Add(1)
		s.dropped.Add(1)
		if s.ins != nil {
			s.ins.observeDrop(sub.policy)
		}
	}
}
