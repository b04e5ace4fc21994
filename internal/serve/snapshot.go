package serve

import (
	"fmt"
	"io"

	"hybridsched/internal/trace"
	"hybridsched/internal/units"
)

// Checkpointing rides the existing HSTR trace machinery: a snapshot is an
// ordinary trace whose records encode the scheduler's pending demand, so
// the same parser, fuzz corpus and error taxonomy cover checkpoints for
// free, and a checkpoint can even be fed back through OfferRecords.
//
// Encoding, one trace per service (single- or multi-shard):
//
//   - One epoch-marker record per shard (Class = snapClassEpoch,
//     Size = 0): Time carries the shard's epoch counter, Flow the shard
//     index. Markers also checkpoint empty shards.
//   - One demand record per nonzero (src, dst) cell (Class =
//     snapClassDemand): Flow is the shard, Size the pending bits.
//     Entries above 2^32-1 bits split into multiple records (Size is
//     uint32), which Restore re-accumulates.
//
// Records are emitted shard by shard, rows ascending, columns ascending —
// a canonical order, so Snapshot∘Restore∘Snapshot is byte-identical.

const (
	snapClassEpoch  = 255
	snapClassDemand = 0
)

// snapshotRecords serializes one shard's state. Callers hold no locks;
// the scheduler locks internally and the result is a consistent cut.
func (s *Scheduler) snapshotRecords(shard int, out []trace.Record) ([]trace.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	out = append(out, trace.Record{
		Time:  units.Time(s.epochs.Load()),
		Flow:  uint64(shard),
		Class: snapClassEpoch,
	})
	n := s.pending.N()
	for i := 0; i < n; i++ {
		row := s.pending.Row(i)
		for k := 0; k < row.Len(); k++ {
			j, v := row.Entry(k)
			for v > 0 {
				chunk := v
				if chunk > int64(^uint32(0)) {
					chunk = int64(^uint32(0))
				}
				out = append(out, trace.Record{
					Flow:  uint64(shard),
					Src:   uint16(i),
					Dst:   uint16(j),
					Size:  uint32(chunk),
					Class: snapClassDemand,
				})
				v -= chunk
			}
		}
	}
	return out, nil
}

// Snapshot writes the scheduler's state to w as a complete HSTR trace.
// The cut is consistent (taken under the demand lock) and canonical: two
// snapshots of identical state are byte-identical.
func (s *Scheduler) Snapshot(w io.Writer) error {
	recs, err := s.snapshotRecords(0, nil)
	if err != nil {
		return err
	}
	return trace.WriteAll(w, recs)
}

// Restore loads a single-shard snapshot produced by Snapshot into a
// freshly built scheduler, replacing its pending demand and epoch
// counter. The matching algorithm restarts from its initial state (arbiter
// pointers are a fairness optimization, not correctness state), so two
// schedulers restored from the same snapshot produce identical frame
// sequences under identical subsequent offers.
func (s *Scheduler) Restore(r io.Reader) error {
	recs, err := trace.ReadAll(r)
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	return s.restoreShard(recs, 0)
}

// restoreShard applies the records labeled with the given shard index.
func (s *Scheduler) restoreShard(recs []trace.Record, shard int) error {
	var epoch uint64
	var sawMarker bool
	for i, r := range recs {
		if r.Flow != uint64(shard) {
			continue
		}
		switch r.Class {
		case snapClassEpoch:
			epoch = uint64(r.Time)
			sawMarker = true
		case snapClassDemand:
			if int(r.Src) >= s.cfg.Ports || int(r.Dst) >= s.cfg.Ports {
				return fmt.Errorf("serve: restore: record %d ports (%d->%d) outside the %d-port fabric",
					i, r.Src, r.Dst, s.cfg.Ports)
			}
		default:
			return fmt.Errorf("serve: restore: record %d has unknown class %d", i, r.Class)
		}
	}
	if !sawMarker {
		return fmt.Errorf("serve: restore: no epoch marker for shard %d", shard)
	}
	// stepMu first, the order Step takes them: an epoch in flight holds a
	// matching computed from the old demand and would drain the restored
	// matrix by it, then add to the served count zeroed here.
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.pending.Reset()
	var total int64
	for _, r := range recs {
		if r.Flow != uint64(shard) || r.Class != snapClassDemand {
			continue
		}
		s.pending.Add(int(r.Src), int(r.Dst), int64(r.Size))
		total += int64(r.Size)
	}
	// pending was replaced wholesale, not written cell by cell: the
	// journal no longer describes its distance from snap.
	s.journal = s.journal[:0]
	s.stale = true
	s.alg.Reset()
	s.epochs.Store(epoch)
	s.idle.Store(0)
	s.offered = total
	s.served = 0
	return nil
}
