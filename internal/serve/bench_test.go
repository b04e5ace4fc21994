package serve

import (
	"fmt"
	"testing"
)

// benchOffer replenishes a sparse demand pattern (~8 peers per port, the
// same density BenchmarkMatch uses) so every epoch has work to schedule.
func benchOffer(b *testing.B, s *Scheduler, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		for k := 1; k <= 8; k++ {
			if err := s.Offer(i, (i+k*7)%n, 1500*8); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServeEpoch prices one epoch of the online scheduling loop —
// offer refill, snapshot boundary, matching, demand drain — with no
// subscribers attached. The per-slot arbiters are allocation-free on
// this path at fabric port counts (the acceptance bar for the serve
// subsystem); run with -benchmem to see it.
func BenchmarkServeEpoch(b *testing.B) {
	for _, alg := range []string{"islip", "greedy", "tdma"} {
		for _, n := range []int{32, 128, 512} {
			b.Run(fmt.Sprintf("%s/n=%d", alg, n), func(b *testing.B) {
				s, err := New(Config{Ports: n, Algorithm: alg, SlotBits: 1500 * 8})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				// Warm the pooled matrices and algorithm scratch.
				benchOffer(b, s, n)
				if _, err := s.Step(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchOffer(b, s, n)
					if _, err := s.Step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkServeBoundary prices the epoch boundary on either side of its
// selection rule, under tdma so the matcher stays out of the figure. One
// op is an offer burst and a Step over a standing backlog on 8 peers per
// port. replay is the serve_snapshot shape of the repository benchmark:
// 2048 ports, 256 offers of 300 bits taken round-robin from the 16384
// cells, so the journal is a sixtieth of the matrix. copy is the
// serve_ingest shape: 512 ports, every one of the 4096 cells offered
// every epoch, which overflows the journal. Both are 0 allocs/op; the
// committed figures are in BENCH_serve.json.
func BenchmarkServeBoundary(b *testing.B) {
	for _, bc := range []struct {
		name      string
		n, offers int
		bits      int64
	}{
		{"replay/n=2048", 2048, 256, 300},
		{"copy/n=512", 512, 8 * 512, 1200},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := bc.n
			s, err := New(Config{Ports: n, Algorithm: "tdma", SlotBits: 12000})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			cursor := 0
			burst := func(count int, bits int64) {
				for ; count > 0; count-- {
					i, k := cursor%n, cursor/n
					if cursor++; cursor == 8*n {
						cursor = 0
					}
					if err := s.Offer(i, (i+1+k*7)%n, bits); err != nil {
						b.Fatal(err)
					}
				}
			}
			// The standing backlog, and the one full copy that picks it up.
			burst(8*n, 9600)
			if _, err := s.Step(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				burst(bc.offers, bc.bits)
				if _, err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeEpochDelta prices the epoch of a weight-reading arbiter on
// its incremental face — the serve_match shape of the repository
// benchmark: 2048 ports under ilqf, each offering 10000 bits (load 0.83)
// to a rotating one of its 8 peers, then a Step. Peer ranks are staggered
// across ports, so the offers of one epoch contend for outputs and a
// bounded backlog of ~9.7k nonzero cells stands; the journal (a write and
// a drain per pair, ~3.9k cells) stays under half of that, so every
// boundary replays and every schedule is a ScheduleDelta over that change
// list. 0 allocs/op; the committed figure is in BENCH_serve.json.
func BenchmarkServeEpochDelta(b *testing.B) {
	const n = 2048
	s, err := New(Config{Ports: n, Algorithm: "ilqf", SlotBits: 12000})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	epoch := func(e int) {
		for i := 0; i < n; i++ {
			if err := s.Offer(i, (i+1+(e+3*i)%8*7)%n, 10000); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	// The backlog reaches its steady state within 300 epochs; the full
	// copies and the mirror's one rebuild are behind it by then.
	const warmup = 400
	for e := 0; e < warmup; e++ {
		epoch(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch(warmup + i)
	}
}

// BenchmarkServeEpochSubscribed prices the same epoch with a subscriber
// attached: one matching clone per epoch is the whole delta.
func BenchmarkServeEpochSubscribed(b *testing.B) {
	const n = 128
	s, err := New(Config{Ports: n, Algorithm: "islip", SlotBits: 1500 * 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sub, err := s.Subscribe(1, DropOldest)
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	benchOffer(b, s, n)
	if _, err := s.Step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOffer(b, s, n)
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
