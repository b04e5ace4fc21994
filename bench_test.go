// Benchmarks regenerating every figure, table and in-text claim of the
// paper (F1, T1, F2) and the framework experiments (E1-E9), plus
// microbenchmarks of the performance-critical substrates. README.md
// maps each benchmark to the paper artifact it reproduces.
//
// The experiment benchmarks run at Quick scale so `go test -bench=.`
// terminates in minutes; run `go run ./cmd/figures -scale full` for
// paper-scale output.
package hybridsched

import (
	"bytes"
	"testing"

	"hybridsched/experiments"
	"hybridsched/internal/demand"
	"hybridsched/internal/match"
	"hybridsched/internal/rng"
	"hybridsched/internal/runner"
	"hybridsched/internal/sched"
	"hybridsched/internal/sim"
	"hybridsched/internal/stats"
	"hybridsched/internal/traffic"
	"hybridsched/internal/units"
	"hybridsched/internal/voq"

	pkt "hybridsched/internal/packet"
)

// benchExperiment runs a registered experiment b.N times and reports one
// derived headline metric when available.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// Figure 1: buffering requirement vs switching time (analytic curve +
// simulated cross-check in both buffering regimes).
func BenchmarkFigure1_BufferVsSwitchingTime(b *testing.B) { benchExperiment(b, "F1") }

// In-text claim: 64x64 @ 10 Gbps needs ~GB at 1 ms switching, ~KB at 1 ns.
func BenchmarkTable1_BufferEndpoints(b *testing.B) { benchExperiment(b, "T1") }

// Figure 2: request->schedule->configure->grant pipeline breakdown.
func BenchmarkFigure2_PipelineBreakdown(b *testing.B) { benchExperiment(b, "F2") }

// E1: scheduler latency, hardware vs software, per algorithm and size.
func BenchmarkE1_SchedulerLatency(b *testing.B) { benchExperiment(b, "E1") }

// E2: latency/jitter of small flows under fast vs slow scheduling.
func BenchmarkE2_MiceLatencyJitter(b *testing.B) { benchExperiment(b, "E2") }

// E3: hybrid throughput vs traffic skew (EPS-only / TDMA / greedy).
func BenchmarkE3_HybridThroughputVsSkew(b *testing.B) { benchExperiment(b, "E3") }

// E4: matching algorithm cost scaling with port count.
func BenchmarkE4_AlgorithmScaling(b *testing.B) { benchExperiment(b, "E4") }

// E5: OCS duty cycle and goodput vs reconfiguration/slot ratio.
func BenchmarkE5_DutyCycle(b *testing.B) { benchExperiment(b, "E5") }

// E6: host-switch synchronization distance vs goodput (host-buffered).
func BenchmarkE6_SyncSlack(b *testing.B) { benchExperiment(b, "E6") }

// E7: crossbar arbiter throughput vs offered load.
func BenchmarkE7_CrossbarSchedulers(b *testing.B) { benchExperiment(b, "E7") }

// E8: demand estimation accuracy vs estimator and window.
func BenchmarkE8_DemandEstimation(b *testing.B) { benchExperiment(b, "E8") }

// E9: cluster-scale centralized vs distributed core scheduling.
func BenchmarkE9_ClusterScheduling(b *testing.B) { benchExperiment(b, "E9") }

// A1: grant-ordering ablation (configure-then-grant vs grant-at-start).
func BenchmarkA1_GrantOrdering(b *testing.B) { benchExperiment(b, "A1") }

// A2: iSLIP iteration-count ablation.
func BenchmarkA2_ISLIPIterations(b *testing.B) { benchExperiment(b, "A2") }

// ---------------------------------------------------------------------------
// Microbenchmarks: the hot paths whose cost bounds simulation scale.

// saturatedDemand builds an all-pairs random demand matrix.
func saturatedDemand(n int, seed uint64) *demand.Matrix {
	r := rng.New(seed)
	d := demand.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d.Set(i, j, int64(1+r.Intn(100_000)))
			}
		}
	}
	return d
}

// BenchmarkMatching measures one Schedule() call per algorithm at 16 and
// 64 ports — the per-slot cost a hardware scheduler must beat in silicon
// and a software scheduler pays on the CPU (E4's raw data).
func BenchmarkMatching(b *testing.B) {
	for _, n := range []int{16, 64} {
		for _, name := range []string{"tdma", "islip1", "islip", "pim", "wavefront", "greedy", "hungarian"} {
			alg, err := match.New(name, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			d := saturatedDemand(n, 42)
			b.Run(benchName(name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					alg.Schedule(d)
				}
			})
		}
	}
}

func benchName(alg string, n int) string {
	return alg + "/" + itoa(n)
}

// sparseDemand builds a matrix where each input talks to about k distinct
// outputs — the demand shape a large fabric actually presents to its
// scheduler (each rack converses with a few peers, not all n).
func sparseDemand(n, k int, seed uint64) *demand.Matrix {
	r := rng.New(seed)
	d := demand.NewMatrix(n)
	for i := 0; i < n; i++ {
		for c := 0; c < k; c++ {
			j := r.Intn(n)
			if j == i {
				continue
			}
			d.Set(i, j, int64(1+r.Intn(100_000)))
		}
	}
	return d
}

// BenchmarkMatch measures one Schedule call per algorithm at rack (16),
// pod (128), fabric (512) and warehouse (2048, 4096) port counts over
// sparse demand (~8 peers per port). This is the scaling trajectory the
// word-parallel bitset kernels are judged against; run with -benchmem
// and compare allocs/op. Hungarian is measured only through 512 ports —
// its cubic assignment solve is the deliberate optimum reference, not a
// per-slot arbiter, and one op at 4096 ports would dominate the whole
// suite.
func BenchmarkMatch(b *testing.B) {
	for _, n := range []int{16, 128, 512, 2048, 4096} {
		d := sparseDemand(n, 8, 42)
		algs := []string{"tdma", "islip", "pim", "wavefront", "greedy", "ilqf", "hungarian"}
		if n > 512 {
			algs = algs[:len(algs)-1]
		}
		for _, name := range algs {
			alg, err := match.New(name, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/n="+itoa(n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					alg.Schedule(d)
				}
			})
		}
	}
}

// BenchmarkFrameDecompose measures a whole-frame circuit decomposition
// (BvN and the Solstice-style max-min) over sparse demand at rack, pod
// and fabric scale — the per-frame cost a slow-switching OCS scheduler
// amortizes.
func BenchmarkFrameDecompose(b *testing.B) {
	for _, n := range []int{16, 128, 512} {
		d := sparseDemand(n, 8, 7)
		b.Run("n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				match.DecomposeBvN(d)
			}
		})
		b.Run("maxmin/n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				match.DecomposeMaxMin(d, d.MaxLineSum()/16)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkEventQueue measures the simulation kernel's schedule+dispatch
// cost, which bounds every packet event.
func BenchmarkEventQueue(b *testing.B) {
	s := sim.New()
	r := rng.New(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(units.Duration(r.Intn(1000))*units.Nanosecond, func() {})
		if s.Pending() > 1024 {
			for s.Step() {
			}
		}
	}
	for s.Step() {
	}
}

// BenchmarkVOQ measures enqueue+dequeue through the bank.
func BenchmarkVOQ(b *testing.B) {
	bank := voq.NewBank(64, 0, nil)
	p := &pkt.Packet{Src: 3, Dst: 9, Size: 1500 * units.Byte}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bank.Enqueue(units.Time(i), p)
		bank.Dequeue(units.Time(i), 3, 9)
	}
}

// BenchmarkHistogram measures the latency-recording hot path.
func BenchmarkHistogram(b *testing.B) {
	var h stats.Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i) * 1313 % 1_000_000)
	}
}

// BenchmarkSketchObserve measures the count-min estimator's per-arrival
// cost — the hardware-friendly alternative to n^2 exact counters.
func BenchmarkSketchObserve(b *testing.B) {
	s := demand.NewSketch(64, 4, 256, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(0, i&63, (i>>6)&63, 12000)
	}
}

// BenchmarkSketchSnapshot measures the full-matrix readout.
func BenchmarkSketchSnapshot(b *testing.B) {
	s := demand.NewSketch(64, 4, 256, 0)
	r := rng.New(1)
	for k := 0; k < 10_000; k++ {
		s.Observe(0, r.Intn(64), r.Intn(64), 12000)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Snapshot(0)
	}
}

// fanoutJobs builds one bundle of independent scenario runs: the same
// 8-port hybrid switch under eight loads with derived seeds — the shape of
// work cmd/sweep and cmd/figures fan out across cores.
func fanoutJobs() []runner.Job {
	jobs := make([]runner.Job, 8)
	for i := range jobs {
		jobs[i] = runner.Job{
			Fabric: FabricConfig{
				Ports:        8,
				LineRate:     10 * units.Gbps,
				LinkDelay:    500 * units.Nanosecond,
				Slot:         10 * units.Microsecond,
				ReconfigTime: units.Microsecond,
				Algorithm:    "islip",
				Timing:       sched.DefaultHardware(),
				Pipelined:    true,
			},
			Traffic: TrafficConfig{
				Ports:    8,
				LineRate: 10 * units.Gbps,
				Load:     0.2 + 0.08*float64(i),
				Pattern:  traffic.Uniform{},
				Sizes:    traffic.Fixed{Size: 1500 * units.Byte},
				Seed:     runner.DeriveSeed(1, i),
			},
			Duration: units.Millisecond,
		}
	}
	return jobs
}

func benchScenarioFanout(b *testing.B, workers int) {
	b.Helper()
	jobs := fanoutJobs()
	pool := runner.New(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.RunScenarios(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioFanoutSerial and BenchmarkScenarioFanoutParallel run
// the identical bundle of independent simulations on one worker and on
// GOMAXPROCS workers; the ns/op ratio is the speedup the parallel
// scenario-execution engine buys on this host.
func BenchmarkScenarioFanoutSerial(b *testing.B)   { benchScenarioFanout(b, 1) }
func BenchmarkScenarioFanoutParallel(b *testing.B) { benchScenarioFanout(b, 0) }

// BenchmarkObserverStream measures the streaming-observation path: a
// fixed 1 ms end-to-end run per op with a 10 us sampling ticker attached
// (150 samples/op, histogram summarization included). It prices a whole
// observed run — including per-op simulator/fabric construction — so
// compare runs of this benchmark against each other, not ns/op against
// BenchmarkFabricEndToEnd, which amortizes construction over one long
// simulation.
func BenchmarkObserverStream(b *testing.B) {
	sc := Scenario{
		Fabric: FabricConfig{
			Ports:        8,
			LineRate:     10 * units.Gbps,
			LinkDelay:    500 * units.Nanosecond,
			Slot:         10 * units.Microsecond,
			ReconfigTime: units.Microsecond,
			Algorithm:    "islip",
			Timing:       sched.DefaultHardware(),
			Pipelined:    true,
		},
		Traffic: TrafficConfig{
			Ports:    8,
			LineRate: 10 * units.Gbps,
			Load:     0.6,
			Pattern:  traffic.Uniform{},
			Sizes:    traffic.Fixed{Size: 1500 * units.Byte},
			Seed:     1,
		},
		Duration:    units.Millisecond,
		SampleEvery: 10 * units.Microsecond,
	}
	var samples int64
	sc.Observer = func(Sample) { samples++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
}

// BenchmarkEmpiricalSampler measures the empirical flow-size hot path:
// one inverse-transform draw from the web-search CDF per op. It is the
// per-flow cost the flow-level generator adds over Fixed sizes.
func BenchmarkEmpiricalSampler(b *testing.B) {
	dist := traffic.WebSearch()
	r := rng.New(1)
	b.ReportAllocs()
	var sink units.Size
	for i := 0; i < b.N; i++ {
		sink += dist.Sample(r)
	}
	if sink == 0 {
		b.Fatal("sampler returned only zeros")
	}
}

// BenchmarkTraceReplay prices the trace-replay hot path: a full 1 ms
// captured flow-level workload re-injected through the fabric per op
// (capture runs once outside the timer). Compare against
// BenchmarkObserverStream-style whole-run benchmarks, not event-level
// ones.
func BenchmarkTraceReplay(b *testing.B) {
	base := Scenario{
		Fabric: FabricConfig{
			Ports:        8,
			LineRate:     10 * units.Gbps,
			LinkDelay:    500 * units.Nanosecond,
			Slot:         10 * units.Microsecond,
			ReconfigTime: units.Microsecond,
			Algorithm:    "islip",
			Timing:       sched.DefaultHardware(),
			Pipelined:    true,
		},
		Traffic: TrafficConfig{
			Ports:     8,
			LineRate:  10 * units.Gbps,
			Load:      0.6,
			Pattern:   traffic.Uniform{},
			Process:   traffic.FlowArrivals,
			FlowSizes: traffic.CacheFollower(),
			Seed:      1,
		},
		Duration: units.Millisecond,
	}
	var buf bytes.Buffer
	capture := base
	capture.CaptureTo = &buf
	if _, err := capture.Run(); err != nil {
		b.Fatal(err)
	}
	records, err := ReadTrace(&buf)
	if err != nil {
		b.Fatal(err)
	}
	replay := base
	replay.Traffic = TrafficConfig{}
	replay.Replay = records
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(records)), "pkts/op")
}

// BenchmarkFabricEndToEnd measures whole-simulator throughput: simulated
// packets pushed through an 8-port hybrid switch per wall-clock second.
func BenchmarkFabricEndToEnd(b *testing.B) {
	m, err := demoScenarioBench(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.Delivered)/float64(b.N), "pkts/op")
}

func demoScenarioBench(n int) (Metrics, error) {
	dur := units.Duration(n) * 100 * units.Microsecond
	if dur < units.Millisecond {
		dur = units.Millisecond
	}
	sc := Scenario{
		Fabric: FabricConfig{
			Ports:        8,
			LineRate:     10 * units.Gbps,
			LinkDelay:    500 * units.Nanosecond,
			Slot:         10 * units.Microsecond,
			ReconfigTime: units.Microsecond,
			Algorithm:    "islip",
			Timing:       sched.DefaultHardware(),
			Pipelined:    true,
		},
		Traffic: TrafficConfig{
			Ports:    8,
			LineRate: 10 * units.Gbps,
			Load:     0.6,
			Pattern:  traffic.Uniform{},
			Sizes:    traffic.Fixed{Size: 1500 * units.Byte},
			Seed:     1,
		},
		Duration: dur,
	}
	return sc.Run()
}

// BenchmarkServiceEpoch prices one epoch of the online scheduling
// service through the public API — ingest refill plus a fan-out step
// over every shard. The per-shard epoch hot path itself is
// allocation-free (BenchmarkServeEpoch in internal/serve pins that); the
// public step adds only the frame-slice fan-out.
func BenchmarkServiceEpoch(b *testing.B) {
	const n = 128
	svc, err := NewService(ServiceConfig{Ports: n, Algorithm: "islip", SlotBits: 1500 * 8})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	offer := func() {
		for i := 0; i < n; i++ {
			for k := 1; k <= 8; k++ {
				if err := svc.Offer(i, (i+k*7)%n, 1500*8); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	offer()
	if _, err := svc.Step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer()
		if _, err := svc.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
