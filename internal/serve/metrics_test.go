package serve

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"hybridsched/internal/metrics"
)

// TestServeMetricsExposition drives an instrumented scheduler and checks
// that every catalogued serve metric reaches the registry with the right
// shard label and values consistent with Stats, and that the registry's
// Prometheus exposition carries the epoch-latency histogram.
func TestServeMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newTestScheduler(t, Config{
		Ports:     8,
		Algorithm: "islip",
		SlotBits:  1500 * 8,
		Shard:     3,
		Metrics:   reg,
	})

	// A 1-deep subscriber that never drains: from the second published
	// frame on, every epoch drops one frame under DropOldest.
	sub, err := s.Subscribe(1, DropOldest)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const epochs = 10
	for e := 0; e < epochs; e++ {
		if err := s.Offer(0, 1, 1500*8); err != nil {
			t.Fatal(err)
		}
		if err := s.Offer(2, 5, 3000*8); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if st.Offers != 2*epochs {
		t.Errorf("Stats.Offers = %d, want %d", st.Offers, 2*epochs)
	}
	if st.MatchedPairs == 0 {
		t.Error("Stats.MatchedPairs = 0 after non-empty epochs")
	}
	if st.EpochNsP50 <= 0 || st.EpochNsP99 < st.EpochNsP50 {
		t.Errorf("epoch percentiles unset or out of order: p50 %d, p99 %d",
			st.EpochNsP50, st.EpochNsP99)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`hybridsched_serve_epoch_latency_ns_bucket{shard="3",le="+Inf"} 10`,
		`hybridsched_serve_epochs_total{shard="3"} 10`,
		`hybridsched_serve_offers_total{shard="3"} 20`,
		`hybridsched_serve_offered_bits_total{shard="3"} ` + itoa(epochs*(1500+3000)*8),
		`hybridsched_serve_subscribers{shard="3"} 1`,
		`hybridsched_serve_dropped_frames_total{policy="drop-oldest",shard="3"} ` + itoa(epochs-1),
		`hybridsched_serve_dropped_frames_total{policy="drop-newest",shard="3"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Served + backlog gauges agree with Stats.
	if !strings.Contains(out, `hybridsched_serve_served_bits_total{shard="3"} `+itoa64(st.ServedBits)+"\n") {
		t.Errorf("served bits counter disagrees with Stats.ServedBits %d:\n%s", st.ServedBits, out)
	}
	if !strings.Contains(out, `hybridsched_serve_backlog_bits{shard="3"} `+itoa64(st.BacklogBits)+"\n") {
		t.Errorf("backlog gauge disagrees with Stats.BacklogBits %d:\n%s", st.BacklogBits, out)
	}

	sub.Close()
	if got := s.Stats().Subscribers; got != 0 {
		t.Errorf("subscribers after close = %d, want 0", got)
	}
	buf.Reset()
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `hybridsched_serve_subscribers{shard="3"} 0`+"\n") {
		t.Error("subscriber gauge not reset after Subscription.Close")
	}
}

// TestShardedMetricsShared: shards of one service share a registry but
// keep distinct instruments via the shard label.
func TestShardedMetricsShared(t *testing.T) {
	reg := metrics.NewRegistry()
	sh, err := NewSharded(2, 1, Config{
		Ports:     8,
		Algorithm: "islip",
		SlotBits:  1500 * 8,
		Metrics:   reg,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if err := sh.Offer(1, 0, 1, 1500*8); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`hybridsched_serve_epochs_total{shard="0"} 1`,
		`hybridsched_serve_epochs_total{shard="1"} 1`,
		`hybridsched_serve_offers_total{shard="0"} 0`,
		`hybridsched_serve_offers_total{shard="1"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func itoa(v int) string     { return strconv.Itoa(v) }
func itoa64(v int64) string { return strconv.FormatInt(v, 10) }

// TestServeFrameDecomposeMetrics: a frame decomposition algorithm behind
// the service attributes its refills — the frames-computed counter
// advances only on refill epochs, the decompose-latency histogram
// records one observation per refill, and per-slot arbiters expose both
// instruments at zero.
func TestServeFrameDecomposeMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newTestScheduler(t, Config{
		Ports:     8,
		Algorithm: "bvn",
		SlotBits:  1500 * 8,
		Shard:     1,
		Metrics:   reg,
	})
	for e := 0; e < 5; e++ {
		if err := s.Offer(0, 1, 1500*8); err != nil {
			t.Fatal(err)
		}
		if err := s.Offer(2, 5, 3000*8); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fr, ok := s.alg.(interface{ Frames() int64 })
	if !ok {
		t.Fatal("bvn frame scheduler does not expose Frames()")
	}
	if fr.Frames() == 0 {
		t.Fatal("no frames computed after non-empty epochs")
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `hybridsched_serve_frames_computed_total{shard="1"} ` + itoa64(fr.Frames())
	if !strings.Contains(out, want+"\n") {
		t.Errorf("exposition missing %q in:\n%s", want, out)
	}
	histCount := `hybridsched_serve_frame_decompose_latency_ns_bucket{shard="1",le="+Inf"} ` + itoa64(fr.Frames())
	if !strings.Contains(out, histCount+"\n") {
		t.Errorf("exposition missing %q in:\n%s", histCount, out)
	}

	// Per-slot arbiters register the instruments but never record them.
	reg2 := metrics.NewRegistry()
	s2 := newTestScheduler(t, Config{Ports: 8, Algorithm: "islip", SlotBits: 1500 * 8, Metrics: reg2})
	if err := s2.Offer(0, 1, 1500*8); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Step(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := reg2.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `hybridsched_serve_frames_computed_total{shard="0"} 0`+"\n") {
		t.Errorf("frames-computed not exposed at zero for per-slot arbiter:\n%s", buf.String())
	}
}

// TestServeSnapshotMetrics: the epoch-boundary instruments say which way
// each boundary went. A saturated run re-offers every cell every epoch,
// which overflows the journal, so every boundary is a full copy; a
// sparse run copies once, after the burst that builds its backlog, and
// replays the journal from then on. The matcher-stage instruments follow
// the boundary: an arbiter with the incremental face (ilqf) schedules from
// the change list on exactly the epochs whose boundary replayed and is
// handed at least the offered cell each time; one without it (islip) only
// ever counts scratch.
func TestServeSnapshotMetrics(t *testing.T) {
	const n, epochs = 32, 20
	offerAll := func(s *Scheduler, bits int64) {
		for i := 0; i < n; i++ {
			for k := 1; k <= 8; k++ {
				if err := s.Offer(i, (i+k)%n, bits); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, tc := range []struct {
		name        string
		offer       func(s *Scheduler, e int)
		full, delta int
		minCells    int
	}{
		{
			name:     "saturated",
			offer:    func(s *Scheduler, e int) { offerAll(s, 1500*8) },
			full:     epochs,
			minCells: epochs * 8 * n, // every copy carries every cell
		},
		{
			name: "sparse",
			offer: func(s *Scheduler, e int) {
				if e == 0 {
					offerAll(s, 100*1500*8)
				} else if err := s.Offer(e%n, (e+1)%n, 1500*8); err != nil {
					t.Fatal(err)
				}
			},
			full:     1,
			delta:    epochs - 1,
			minCells: 8*n + (epochs - 1), // the copy, then at least the offered cell per replay
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, alg := range []string{"islip", "ilqf"} {
				reg := metrics.NewRegistry()
				s := newTestScheduler(t, Config{Ports: n, Algorithm: alg, SlotBits: 1500 * 8, Metrics: reg})
				for e := 0; e < epochs; e++ {
					tc.offer(s, e)
					if _, err := s.Step(); err != nil {
						t.Fatal(err)
					}
				}
				deltaSchedules := 0
				if alg == "ilqf" {
					deltaSchedules = tc.delta
				}
				var buf bytes.Buffer
				if err := reg.WriteText(&buf); err != nil {
					t.Fatal(err)
				}
				out := buf.String()
				for _, want := range []string{
					`hybridsched_serve_snapshots_total{mode="full",shard="0"} ` + itoa(tc.full),
					`hybridsched_serve_snapshots_total{mode="delta",shard="0"} ` + itoa(tc.delta),
					`hybridsched_serve_snapshot_latency_ns_bucket{shard="0",le="+Inf"} ` + itoa(epochs),
					`hybridsched_serve_schedules_total{mode="delta",shard="0"} ` + itoa(deltaSchedules),
					`hybridsched_serve_schedules_total{mode="scratch",shard="0"} ` + itoa(epochs-deltaSchedules),
					`hybridsched_serve_schedule_latency_ns_bucket{shard="0",le="+Inf"} ` + itoa(epochs),
				} {
					if !strings.Contains(out, want+"\n") {
						t.Errorf("%s: exposition missing %q in:\n%s", alg, want, out)
					}
				}
				if got := s.ins.snapshotCells.Value(); got < uint64(tc.minCells) {
					t.Errorf("%s: snapshot cells = %d, want at least %d", alg, got, tc.minCells)
				}
				if got := s.ins.scheduleRepairs.Value(); got < uint64(deltaSchedules) || (deltaSchedules == 0 && got != 0) {
					t.Errorf("%s: %d cells handed to %d delta schedules", alg, got, deltaSchedules)
				}
			}
		})
	}
}
