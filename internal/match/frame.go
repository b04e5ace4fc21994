package match

import (
	"hybridsched/internal/demand"
)

// FrameScheduler adapts a frame decomposition (Birkhoff–von Neumann or
// max-min/Solstice-style) to the per-slot Algorithm interface: when its
// slot queue is empty it decomposes the current demand snapshot into a
// frame of matchings and then plays them back one Schedule call at a time.
// This is how slow-switching optics are actually driven — compute a whole
// frame, amortize the scheduler over it — in contrast to the per-slot
// arbiters.
//
// Weights are ignored during playback (the fabric's slot length fixes the
// per-matching service); heavier matchings are emitted proportionally more
// often by repeating them ceil(weight/quantum) times, preserving the
// decomposition's service ratios.
//
// The scheduler owns a Decomposer, and the playback queue and all
// decomposition scratch are recycled, so steady-state operation is
// allocation-free. A frame is decomposed synchronously, inside the
// Schedule call that finds the queue empty; the queued matchings live in
// the engine's arena until the next decomposition.
type FrameScheduler struct {
	maxmin bool
	dc     *Decomposer
	queue  []Matching // current frame's playback, recycled across frames
	qhead  int        // next playback position in queue
	idle   Matching   // all-Unmatched result for zero demand
	frames int64
}

// NewBvNFrame returns a frame scheduler using the full BvN decomposition.
func NewBvNFrame(n int) *FrameScheduler {
	return &FrameScheduler{dc: newDecomposer(n), idle: NewMatching(n)}
}

// NewMaxMinFrame returns a frame scheduler using the reconfiguration-aware
// max-min decomposition.
func NewMaxMinFrame(n int) *FrameScheduler {
	return &FrameScheduler{maxmin: true, dc: newDecomposer(n), idle: NewMatching(n)}
}

// Name implements Algorithm.
func (f *FrameScheduler) Name() string {
	if f.maxmin {
		return "maxmin-frame"
	}
	return "bvn-frame"
}

// Reset implements Algorithm: playback is discarded, so the next
// Schedule decomposes a new frame — the state a fresh scheduler has.
func (f *FrameScheduler) Reset() {
	f.queue = f.queue[:0]
	f.qhead = 0
	f.frames = 0
}

// Frames returns how many decompositions have been computed.
func (f *FrameScheduler) Frames() int64 { return f.frames }

// maxPlayback caps a frame's playback length so schedules stay responsive
// to demand shifts; the complexity model amortizes frame cost over it.
const maxPlayback = 64

// Complexity implements Algorithm. The hardware depth models one
// augmenting sweep per emitted slot (a pipelined hardware implementation
// overlaps frame computation with playback). The software cost is the
// word-parallel frame decomposition amortized over the playback it
// feeds: a frame runs O(n) extractions, each a Kuhn sweep over
// ⌈n/64⌉-word rows plus stuffing and (max-min) threshold probes, and
// plays back up to maxPlayback slots, so the per-emitted-slot share is
// O(n²·⌈n/64⌉) words scanned plus the probe term. The old
// metadata still carried the dense-era n³-per-slot scan model, which
// overstates the word-parallel cost roughly 64-fold at fabric sizes.
// TestFrameComplexityReflectsOps pins the new model against an
// instrumented mirror of the engine: counted ops per frame stay below
// SoftwareOps times the slots the frame emits, while the model stays
// well below n³.
func (f *FrameScheduler) Complexity(n int) Complexity {
	words := bitsetWords(n)
	perSlot := 8*n*n*words + 4*n*modelFill*log2ceil(n)
	if perSlot < n {
		perSlot = n
	}
	return Complexity{HardwareDepth: 4 * n, SoftwareOps: perSlot}
}

// Schedule implements Algorithm.
//
//hybridsched:hotpath
func (f *FrameScheduler) Schedule(d *demand.Matrix) Matching {
	if f.qhead >= len(f.queue) {
		f.refill(d)
	}
	if f.qhead >= len(f.queue) {
		return f.idle
	}
	m := f.queue[f.qhead]
	f.qhead++
	return m
}

// decompose runs one frame decomposition and returns the engine-owned
// slots.
func (f *FrameScheduler) decompose(d *demand.Matrix) []Slot {
	if f.maxmin {
		// Demand below 1/16 of the max line sum is not worth its own
		// reconfiguration; the fabric's residue path picks it up.
		return f.dc.MaxMin(d, d.MaxLineSum()/16)
	}
	return f.dc.BvN(d)
}

// refill computes the next frame and queues its playback. It is the
// reviewed allocation boundary of the frame scheduler's hot path: it
// runs once per maxPlayback emitted slots, every buffer it and the
// decomposition engine touch is recycled, and the steady state is pinned
// at 0 allocs/op by TestFrameSchedulerSteadyStateAllocs — but its cold
// start and arena growth are not per-slot work and are not held to the
// per-slot contract.
//
//hybridsched:alloc-ok frame boundary, amortized over maxPlayback slots and pinned 0-alloc in steady state
func (f *FrameScheduler) refill(d *demand.Matrix) {
	f.queue = f.queue[:0]
	f.qhead = 0
	if d.Total() == 0 {
		return
	}
	slots := f.decompose(d)
	if len(slots) == 0 {
		return
	}
	f.frames++
	// Quantum: the smallest slot weight, so the lightest matching is
	// emitted exactly once per frame. Cap playback length to keep frames
	// responsive to demand shifts.
	quantum := slots[0].Weight
	for _, s := range slots {
		if s.Weight < quantum {
			quantum = s.Weight
		}
	}
	if quantum <= 0 {
		quantum = 1
	}
	total := 0
	for _, s := range slots {
		reps := int((s.Weight + quantum - 1) / quantum)
		if reps < 1 {
			reps = 1
		}
		for r := 0; r < reps && total < maxPlayback; r++ {
			f.queue = append(f.queue, s.Match)
			total++
		}
	}
}

func init() {
	Register("bvn", func(n int, _ uint64) Algorithm { return NewBvNFrame(n) })
	Register("maxmin", func(n int, _ uint64) Algorithm { return NewMaxMinFrame(n) })
}
