package serve

import (
	"strconv"
	"time"

	"hybridsched/internal/metrics"
)

// The scheduler's instrumentation: every serve-layer metric is a
// pre-registered instrument in a metrics.Registry, labeled by shard, so
// recording from the epoch hot path is a handful of atomic updates —
// zero heap allocations, enforced by schedlint's hotpathalloc analyzer
// through the Step closure and pinned by TestServeEpochAllocFree with
// instrumentation enabled.
//
// Metric catalog (see docs/OBSERVABILITY.md):
//
//	hybridsched_serve_epoch_latency_ns       histogram {shard}
//	hybridsched_serve_epochs_total           counter   {shard}
//	hybridsched_serve_idle_epochs_total      counter   {shard}
//	hybridsched_serve_offers_total           counter   {shard}
//	hybridsched_serve_offered_bits_total     counter   {shard}
//	hybridsched_serve_served_bits_total      counter   {shard}
//	hybridsched_serve_matched_pairs_total    counter   {shard}
//	hybridsched_serve_backlog_bits           gauge     {shard}
//	hybridsched_serve_subscribers            gauge     {shard}
//	hybridsched_serve_dropped_frames_total   counter   {shard, policy}
//	hybridsched_serve_frame_decompose_latency_ns  histogram {shard}
//	hybridsched_serve_frames_computed_total       counter   {shard}
//	hybridsched_serve_snapshot_latency_ns    histogram {shard}
//	hybridsched_serve_snapshots_total        counter   {shard, mode}
//	hybridsched_serve_snapshot_cells_total   counter   {shard}
//	hybridsched_serve_schedule_latency_ns    histogram {shard}
//	hybridsched_serve_schedules_total        counter   {shard, mode}
//	hybridsched_serve_schedule_repairs_total counter   {shard}

// instruments is one scheduler's bound slice of the registry.
type instruments struct {
	epochLatency *metrics.Histogram
	epochs       *metrics.Counter
	idleEpochs   *metrics.Counter
	offers       *metrics.Counter
	offeredBits  *metrics.Counter
	servedBits   *metrics.Counter
	matchedPairs *metrics.Counter
	backlogBits  *metrics.Gauge
	subscribers  *metrics.Gauge
	dropsOldest  *metrics.Counter
	dropsNewest  *metrics.Counter

	// Frame-decomposition attribution, recorded only for frame
	// scheduling algorithms and only on epochs that computed a frame.
	frameLatency   *metrics.Histogram
	framesComputed *metrics.Counter

	// The epoch boundary: how long bringing the snapshot up to date took,
	// which way it was done (journal replay or full copy — the hit rate of
	// the write journal), and how many cells it wrote.
	snapshotLatency *metrics.Histogram
	snapshotsDelta  *metrics.Counter
	snapshotsFull   *metrics.Counter
	snapshotCells   *metrics.Counter

	// The matcher's stage of the epoch: how long the arbiter call took,
	// whether it scheduled from the boundary's change list or from scratch
	// (the hit rate of the arbiter's incremental face), and how many
	// listed cells the delta calls were handed to repair.
	scheduleLatency  *metrics.Histogram
	schedulesDelta   *metrics.Counter
	schedulesScratch *metrics.Counter
	scheduleRepairs  *metrics.Counter
}

// newInstruments registers (or re-binds, after a restore) the shard's
// instruments. Registration is cold-path; only the returned pointers are
// touched per epoch.
func newInstruments(r *metrics.Registry, shard int) *instruments {
	sh := metrics.Label{Key: "shard", Value: strconv.Itoa(shard)}
	return &instruments{
		epochLatency: r.Histogram("hybridsched_serve_epoch_latency_ns",
			"Wall-clock latency of one scheduling epoch (Step), in nanoseconds.", sh),
		epochs: r.Counter("hybridsched_serve_epochs_total",
			"Completed scheduling epochs.", sh),
		idleEpochs: r.Counter("hybridsched_serve_idle_epochs_total",
			"Epochs whose matching was empty.", sh),
		offers: r.Counter("hybridsched_serve_offers_total",
			"Demand offers ingested (streaming, batch records, and source-driven).", sh),
		offeredBits: r.Counter("hybridsched_serve_offered_bits_total",
			"Total demand ingested, in bits.", sh),
		servedBits: r.Counter("hybridsched_serve_served_bits_total",
			"Total demand drained by computed frames, in bits.", sh),
		matchedPairs: r.Counter("hybridsched_serve_matched_pairs_total",
			"Matched (input, output) pairs across all frames.", sh),
		backlogBits: r.Gauge("hybridsched_serve_backlog_bits",
			"Pending demand after the most recent epoch, in bits.", sh),
		subscribers: r.Gauge("hybridsched_serve_subscribers",
			"Currently registered frame subscribers.", sh),
		dropsOldest: r.Counter("hybridsched_serve_dropped_frames_total",
			"Frames dropped on full subscriber buffers, by drop policy.",
			sh, metrics.Label{Key: "policy", Value: DropOldest.String()}),
		dropsNewest: r.Counter("hybridsched_serve_dropped_frames_total",
			"Frames dropped on full subscriber buffers, by drop policy.",
			sh, metrics.Label{Key: "policy", Value: DropNewest.String()}),
		frameLatency: r.Histogram("hybridsched_serve_frame_decompose_latency_ns",
			"Latency the epoch paid for circuit-frame decomposition (refill epochs only), in nanoseconds.", sh),
		framesComputed: r.Counter("hybridsched_serve_frames_computed_total",
			"Circuit frames decomposed by the scheduling algorithm.", sh),
		snapshotLatency: r.Histogram("hybridsched_serve_snapshot_latency_ns",
			"Latency of bringing the demand snapshot up to date at the epoch boundary, in nanoseconds.", sh),
		snapshotsDelta: r.Counter("hybridsched_serve_snapshots_total",
			"Epoch-boundary snapshots, by mode: delta replays the write journal, full copies the matrix.",
			sh, metrics.Label{Key: "mode", Value: "delta"}),
		snapshotsFull: r.Counter("hybridsched_serve_snapshots_total",
			"Epoch-boundary snapshots, by mode: delta replays the write journal, full copies the matrix.",
			sh, metrics.Label{Key: "mode", Value: "full"}),
		snapshotCells: r.Counter("hybridsched_serve_snapshot_cells_total",
			"Cells written into the snapshot at epoch boundaries (journal entries replayed, or nonzeros copied).", sh),
		scheduleLatency: r.Histogram("hybridsched_serve_schedule_latency_ns",
			"Latency of the matching algorithm's call within one epoch, in nanoseconds.", sh),
		schedulesDelta: r.Counter("hybridsched_serve_schedules_total",
			"Matching algorithm calls, by mode: delta schedules from the boundary's change list, scratch from the whole snapshot.",
			sh, metrics.Label{Key: "mode", Value: "delta"}),
		schedulesScratch: r.Counter("hybridsched_serve_schedules_total",
			"Matching algorithm calls, by mode: delta schedules from the boundary's change list, scratch from the whole snapshot.",
			sh, metrics.Label{Key: "mode", Value: "scratch"}),
		scheduleRepairs: r.Counter("hybridsched_serve_schedule_repairs_total",
			"Changed cells handed to the matching algorithm on delta calls.", sh),
	}
}

// observeOffer records one accepted offer. On the Source ingest path
// this runs inside the epoch hot loop: atomic adds only.
func (in *instruments) observeOffer(bits int64) {
	in.offers.Inc()
	in.offeredBits.Add(uint64(bits))
}

// observeEpoch records one completed epoch. Called from the Step hot
// path: atomic updates on pre-registered instruments only.
func (in *instruments) observeEpoch(elapsed time.Duration, pairs int, servedBits, backlogBits int64) {
	in.epochLatency.Observe(int64(elapsed))
	in.epochs.Inc()
	if pairs == 0 {
		in.idleEpochs.Inc()
	}
	in.matchedPairs.Add(uint64(pairs))
	in.servedBits.Add(uint64(servedBits))
	in.backlogBits.Set(backlogBits)
}

// observeFrames records one epoch's frame-decomposition work: the
// latency of the Schedule call that decomposed its frames (the whole
// synchronous decomposition plus that epoch's playback slot) and how
// many frames it computed. Hot path: atomic updates only.
func (in *instruments) observeFrames(elapsed time.Duration, computed int64) {
	in.frameLatency.Observe(int64(elapsed))
	in.framesComputed.Add(uint64(computed))
}

// observeSnapshot records one epoch boundary. Hot path: atomic updates
// only.
func (in *instruments) observeSnapshot(elapsed time.Duration, cells int, full bool) {
	in.snapshotLatency.Observe(int64(elapsed))
	if full {
		in.snapshotsFull.Inc()
	} else {
		in.snapshotsDelta.Inc()
	}
	in.snapshotCells.Add(uint64(cells))
}

// observeSchedule records one call of the matching algorithm. Hot path:
// atomic updates only.
func (in *instruments) observeSchedule(elapsed time.Duration, delta bool, repairs int) {
	in.scheduleLatency.Observe(int64(elapsed))
	if delta {
		in.schedulesDelta.Inc()
		in.scheduleRepairs.Add(uint64(repairs))
	} else {
		in.schedulesScratch.Inc()
	}
}

// observeDrop records one dropped frame under the subscription's policy.
func (in *instruments) observeDrop(p DropPolicy) {
	if p == DropNewest {
		in.dropsNewest.Inc()
	} else {
		in.dropsOldest.Inc()
	}
}

// stepStart and stepElapsed read the monotonic clock around one epoch
// for the latency histogram. The readings are observational only — they
// never feed a scheduling decision, a frame, or any other result — so
// the determinism contract is intact.
//
//hybridsched:wallclock observational epoch-latency timing only
func stepStart() time.Time { return time.Now() }

//hybridsched:wallclock observational epoch-latency timing only
func stepElapsed(t0 time.Time) time.Duration { return time.Since(t0) }
