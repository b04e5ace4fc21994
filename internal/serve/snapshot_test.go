package serve

import (
	"bytes"
	"errors"
	"testing"

	"hybridsched/internal/trace"
	"hybridsched/internal/units"
)

// TestSnapshotRoundTrip pins the checkpoint contract end to end:
// Snapshot∘Restore∘Snapshot is byte-identical, the snapshot parses as an
// ordinary HSTR trace, and a restored scheduler replays deterministically.
func TestSnapshotRoundTrip(t *testing.T) {
	a := newTestScheduler(t, Config{Ports: 8, Algorithm: "islip", Seed: 7, SlotBits: 300})
	for e := 0; e < 17; e++ {
		a.Offer(e%8, (e*3+1)%8, int64(1000+e*123))
		if _, err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var snap1 bytes.Buffer
	if err := a.Snapshot(&snap1); err != nil {
		t.Fatal(err)
	}

	// The snapshot is a plain HSTR trace: the standard reader parses it.
	recs, err := trace.ReadAll(bytes.NewReader(snap1.Bytes()))
	if err != nil {
		t.Fatalf("snapshot is not a valid HSTR trace: %v", err)
	}
	if recs[0].Class != snapClassEpoch || recs[0].Time != units.Time(17) {
		t.Fatalf("epoch marker = %+v, want class %d time 17", recs[0], snapClassEpoch)
	}

	b := newTestScheduler(t, Config{Ports: 8, Algorithm: "islip", Seed: 7, SlotBits: 300})
	if err := b.Restore(bytes.NewReader(snap1.Bytes())); err != nil {
		t.Fatal(err)
	}
	if b.Epoch() != 17 {
		t.Fatalf("restored epoch = %d, want 17", b.Epoch())
	}

	// Bit-identical through the trace path: re-snapshotting the restored
	// scheduler reproduces the original bytes exactly.
	var snap2 bytes.Buffer
	if err := b.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Fatal("snapshot -> restore -> snapshot is not byte-identical")
	}

	// Deterministic replay: two schedulers restored from the same
	// snapshot produce identical frame sequences under identical offers.
	c := newTestScheduler(t, Config{Ports: 8, Algorithm: "islip", Seed: 7, SlotBits: 300})
	if err := c.Restore(bytes.NewReader(snap1.Bytes())); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 25; e++ {
		b.Offer((e*5)%8, (e+1)%8, 400)
		c.Offer((e*5)%8, (e+1)%8, 400)
		fb, err1 := b.Step()
		fc, err2 := c.Step()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fb.Epoch != fc.Epoch || fb.ServedBits != fc.ServedBits ||
			fb.BacklogBits != fc.BacklogBits || !fb.Match.Equal(fc.Match) {
			t.Fatalf("restored replay diverged at step %d: %+v vs %+v", e, fb, fc)
		}
	}
}

func TestSnapshotLargeEntryChunking(t *testing.T) {
	const huge = int64(^uint32(0)) + 12345 // needs two records
	a := newTestScheduler(t, Config{Ports: 4, Algorithm: "greedy"})
	if err := a.Offer(1, 2, huge); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := a.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // marker + two chunks
		t.Fatalf("got %d records, want 3", len(recs))
	}
	b := newTestScheduler(t, Config{Ports: 4, Algorithm: "greedy"})
	if err := b.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().BacklogBits; got != huge {
		t.Fatalf("restored backlog = %d, want %d", got, huge)
	}
}

func TestRestoreErrors(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "greedy"})
	if err := s.Restore(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("garbage restore = %v, want ErrBadTrace", err)
	}
	// No epoch marker.
	var buf bytes.Buffer
	trace.WriteAll(&buf, []trace.Record{{Src: 0, Dst: 1, Size: 5, Class: snapClassDemand}})
	if err := s.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore without epoch marker accepted")
	}
	// Out-of-range ports.
	buf.Reset()
	trace.WriteAll(&buf, []trace.Record{
		{Class: snapClassEpoch},
		{Src: 9, Dst: 1, Size: 5, Class: snapClassDemand},
	})
	if err := s.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("out-of-range restore accepted")
	}
	// Unknown record class.
	buf.Reset()
	trace.WriteAll(&buf, []trace.Record{{Class: 7}})
	if err := s.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("unknown class accepted")
	}
	// A failed restore leaves the scheduler usable.
	if err := s.Offer(0, 1, 10); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreDuringStep restores a checkpoint over and over while another
// goroutine offers and steps. A restore must wait out the epoch in
// flight: an epoch that straddled it would drain the restored demand by
// a matching computed from the old one and add to a served count the
// restore had just zeroed. Conservation is checked in every Stats along
// the way — offered, served and backlog are one cut — and at the end.
func TestRestoreDuringStep(t *testing.T) {
	const n = 16
	s := newTestScheduler(t, Config{Ports: n, Algorithm: "islip", SlotBits: 1000})
	for i := 0; i < n; i++ {
		for k := 1; k <= 4; k++ {
			s.Offer(i, (i+k)%n, int64(1500*k))
		}
	}
	var blob bytes.Buffer
	if err := s.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}

	conserved := func() {
		if st := s.Stats(); st.OfferedBits != st.ServedBits+st.BacklogBits {
			t.Errorf("conservation violated at epoch %d: offered %d != served %d + backlog %d",
				st.Epochs, st.OfferedBits, st.ServedBits, st.BacklogBits)
		}
	}
	stop := make(chan struct{})
	stepped := make(chan struct{})
	go func() {
		defer close(stepped)
		for e := 0; ; e++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Offer(e%n, (e+1+e%3)%n, 700); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Step(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for k := 0; k < 300; k++ {
		if err := s.Restore(bytes.NewReader(blob.Bytes())); err != nil {
			t.Fatal(err)
		}
		conserved()
	}
	close(stop)
	<-stepped
	conserved()
}

func TestShardedSnapshotRoundTrip(t *testing.T) {
	mk := func() *Sharded {
		sh, err := NewSharded(3, 1, Config{Ports: 8, Algorithm: "islip", Seed: 3, SlotBits: 200}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		return sh
	}
	a := mk()
	// Different load and epoch counts per shard; shard 2 stays empty.
	a.Offer(0, 1, 2, 5000)
	a.Offer(1, 3, 4, 7000)
	for e := 0; e < 4; e++ {
		if _, err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Shard(0).Step(); err != nil { // desynchronize epochs
		t.Fatal(err)
	}
	var snap1 bytes.Buffer
	if err := a.Snapshot(&snap1); err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.Restore(bytes.NewReader(snap1.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Shard(0).Epoch(), a.Shard(0).Epoch(); got != want {
		t.Fatalf("shard 0 epoch = %d, want %d", got, want)
	}
	if got, want := b.Shard(2).Epoch(), a.Shard(2).Epoch(); got != want {
		t.Fatalf("shard 2 epoch = %d, want %d", got, want)
	}
	var snap2 bytes.Buffer
	if err := b.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Fatal("sharded snapshot -> restore -> snapshot is not byte-identical")
	}
	// Restoring into a smaller service fails cleanly.
	small, err := NewSharded(2, 1, Config{Ports: 8, Algorithm: "islip"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if err := small.Restore(bytes.NewReader(snap1.Bytes())); err == nil {
		t.Fatal("3-shard snapshot restored into 2-shard service")
	}
}
