package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"hybridsched"
)

// batch_pack runs the committed scenario pack the way cmd/sweep and
// cmd/figures do: the five pack documents, each under two algorithms, as
// one ten-scenario RunScenarios batch over the worker pool. It is the
// paper-reproduction path: simulation kernel, traffic dynamics, VOQs,
// scheduling loop, OCS and EPS, and the runner's fan-out.
const (
	packPorts      = 32
	packDurationUS = 1000 // simulated time each scenario offers traffic for
)

var packAlgorithms = []string{"islip", "greedy"}

// loadPack reads the pack and sets the geometry on each config before it
// is lowered: port-bound patterns are sized when the scenario is built,
// so a later WithPorts would leave them at the document's four ports.
func loadPack(cfg runConfig) ([]hybridsched.ScenarioConfig, error) {
	files, err := filepath.Glob(filepath.Join(cfg.root, "testdata", "scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenario documents under testdata/scenarios")
	}
	var out []hybridsched.ScenarioConfig
	for _, file := range files {
		for _, alg := range packAlgorithms {
			sc, err := hybridsched.LoadScenarioFile(file)
			if err != nil {
				return nil, err
			}
			sc.Name += "/" + alg
			sc.Ports = packPorts
			sc.Duration = fmt.Sprintf("%dus", cfg.scaled(packDurationUS, 100))
			sc.Algorithm = alg
			sc.Seed = hybridsched.DeriveSeed(cfg.seed, len(out))
			out = append(out, sc)
		}
	}
	return out, nil
}

// lower builds fresh scenarios: patterns carry state, so a scenario
// value is run once.
func lower(cfgs []hybridsched.ScenarioConfig) ([]hybridsched.Scenario, error) {
	scs := make([]hybridsched.Scenario, len(cfgs))
	for i, c := range cfgs {
		sc, err := hybridsched.ScenarioFromConfig(c)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	return scs, nil
}

// packRun is the loaded pack plus the reference results of a serial run.
type packRun struct {
	res       *result
	cfgs      []hybridsched.ScenarioConfig
	ref       []string // per scenario, the printed Metrics of the serial run
	delivered int64    // per batch
	batches   int64
}

func metricsKey(m hybridsched.Metrics) string { return fmt.Sprintf("%+v", m) }

// batch runs the pack once on the given number of workers and checks
// the results against the serial reference (once there is one).
func (p *packRun) batch(workers int) ([]hybridsched.Metrics, time.Duration, error) {
	scs, err := lower(p.cfgs)
	if err != nil {
		return nil, 0, err
	}
	// Every batch starts from a collected heap, so its time and its peak
	// memory do not depend on what the batch before it left behind.
	runtime.GC()
	t0 := time.Now()
	ms, err := hybridsched.RunScenarios(scs, workers)
	wall := time.Since(t0)
	p.batches++
	if err != nil {
		p.res.failed += int64(len(scs))
		return nil, 0, err
	}
	for i, m := range ms {
		if p.ref != nil && metricsKey(m) != p.ref[i] {
			p.res.failf("batch %d: %s on %d workers differs from the serial run", p.batches, p.cfgs[i].Name, workers)
		}
	}
	return ms, wall, nil
}

// setupPack loads the pack and runs it once serially: the warm-up, and
// the reference every later batch must reproduce.
func setupPack(cfg runConfig, res *result) (*packRun, error) {
	cfgs, err := loadPack(cfg)
	if err != nil {
		return nil, err
	}
	p := &packRun{res: res, cfgs: cfgs}
	ms, _, err := p.batch(1)
	if err != nil {
		return nil, err
	}
	for i, m := range ms {
		p.ref = append(p.ref, metricsKey(m))
		p.delivered += m.Delivered
		drops := m.DropsVOQ + m.DropsHost + m.DropsClassify + m.EPS.Drops
		if inFlight := m.Injected - m.Delivered - drops; inFlight < 0 || m.Delivered == 0 {
			res.failf("%s: injected %d, delivered %d, dropped %d: %d in flight", cfgs[i].Name, m.Injected, m.Delivered, drops, inFlight)
		}
	}
	return p, nil
}

// gcCPU reads the runtime's GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// generatorOnly runs every scenario's traffic configuration on a bare
// simulator with a counting sink: the generator's share of a packet.
func (p *packRun) generatorOnly() (packets int64, err error) {
	scs, err := lower(p.cfgs)
	if err != nil {
		return 0, err
	}
	for _, sc := range scs {
		tc := sc.Traffic
		tc.Until = hybridsched.Time(sc.Duration)
		gen, err := hybridsched.NewTrafficGenerator(tc)
		if err != nil {
			return 0, err
		}
		sim := hybridsched.NewSimulator()
		gen.Start(sim, func(*hybridsched.Packet) { packets++ })
		sim.RunUntil(tc.Until)
	}
	return packets, nil
}

func runBatchPack(cfg runConfig) (*result, error) {
	res := newResult()
	p, setupS, err := setupTimes(
		func() (*packRun, error) { return setupPack(cfg, res) },
		func(*packRun) {})
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	measure := time.Duration(cfg.seconds * float64(time.Second))
	digest := sha256.New()
	for _, key := range p.ref {
		digest.Write([]byte(key))
	}
	res.exact["metrics_digest"] = hex.EncodeToString(digest.Sum(nil))
	res.exact["delivered_per_batch"] = fmt.Sprint(p.delivered)
	delivered := float64(p.delivered)

	// parallel runs plain parallel batches for d.
	parallel := func(d time.Duration) (wallNS, perSec []float64, err error) {
		for start := time.Now(); time.Since(start) < d; {
			_, wall, err := p.batch(workers)
			if err != nil {
				return nil, nil, err
			}
			wallNS = append(wallNS, float64(wall))
			perSec = append(perSec, delivered/wall.Seconds())
		}
		return wallNS, perSec, nil
	}

	if !cfg.trace {
		wallNS, perSec, err := parallel(measure)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return nil, err
		}
		res.metrics["setup_s"] = setupS
		res.metrics["throughput_per_s"] = median(perSec)
		res.metrics["latency_us_p50"] = median(wallNS) / 1e3
		res.metrics["peak_rss_mb"] = rss
		res.notef("throughput_per_s counts delivered simulated packets; median of %d batches of %d scenarios on %d workers, %.0f packets each", len(perSec), len(p.cfgs), workers, delivered)
		res.notef("latency_us_p50 is one RunScenarios batch")
		res.attempted = p.batches * int64(len(p.cfgs))
		return res, nil
	}

	// Traced run: each pass runs the pack four ways, a span around each.
	// The replayed scenario is captured once, outside the passes.
	var captured bytes.Buffer
	replayCfg := p.cfgs[0]
	sc, err := hybridsched.ScenarioFromConfig(replayCfg)
	if err != nil {
		return nil, err
	}
	sc.CaptureTo = &captured
	want, err := sc.Run()
	if err != nil {
		return nil, err
	}
	records, err := hybridsched.ReadTrace(&captured)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	var parallelS, serialS, gcS, cpuS float64
	var mallocs, allocBytes uint64
	var genPackets, genPasses int64
	var mem0, mem1 runtime.MemStats
	passes := int64(0)
	tracedStart := time.Now()
	for time.Since(tracedStart) < measure*3/4 {
		passes++
		t0 := tr.now()
		gc0, cpu0 := gcCPU()
		_, wall, err := p.batch(workers)
		if err != nil {
			return nil, err
		}
		gc1, cpu1 := gcCPU()
		parallelS += wall.Seconds()
		gcS, cpuS = gcS+gc1-gc0, cpuS+cpu1-cpu0
		t1 := tr.now()
		tr.add(spRunScenarios, passes, t0, t1)

		runtime.ReadMemStats(&mem0)
		t1 = tr.now()
		_, wall, err = p.batch(1)
		if err != nil {
			return nil, err
		}
		t2 := tr.now()
		runtime.ReadMemStats(&mem1)
		serialS += wall.Seconds()
		mallocs += mem1.Mallocs - mem0.Mallocs
		allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
		tr.add(spSerial, passes, t1, t2)

		t2 = tr.now()
		n, err := p.generatorOnly()
		if err != nil {
			return nil, err
		}
		genPackets, genPasses = genPackets+n, genPasses+1
		t3 := tr.now()
		tr.add(spTrafficGen, passes, t2, t3)

		replay, err := hybridsched.ScenarioFromConfig(replayCfg)
		if err != nil {
			return nil, err
		}
		replay.Traffic = hybridsched.TrafficConfig{}
		replay.Replay = records
		got, err := replay.Run()
		if err != nil {
			return nil, err
		}
		t4 := tr.now()
		tr.add(spTraceReplay, passes, t3, t4)
		tr.add(spBatch, passes, t0, t4)
		if metricsKey(got) != metricsKey(want) {
			res.failf("pass %d: replaying the captured trace of %s gives different metrics", passes, replayCfg.Name)
		}
	}
	_, perSec, err := parallel(measure / 4)
	if err != nil {
		return nil, err
	}

	n := float64(passes)
	m := res.metrics
	m["runner.serial_packets_per_s"] = delivered * n / serialS
	m["runner.parallel_speedup"] = serialS / parallelS
	m["runner.gc_cpu_frac"] = gcS / cpuS
	m["fabric.ns_per_packet"] = 1e9 * serialS / (delivered * n)
	m["fabric.bytes_per_packet"] = float64(allocBytes) / (delivered * n)
	m["fabric.allocs_per_packet"] = float64(mallocs) / (delivered * n)
	m["traffic.gen_ns_per_packet"] = tr.total(spTrafficGen) / float64(genPackets)
	m["trace.replay_ns_per_packet"] = tr.total(spTraceReplay) / (n * float64(len(records)))
	m["trace.overhead_frac"] = 1 - (delivered*n/parallelS)/median(perSec)
	res.exact["generated_per_pass"] = fmt.Sprint(genPackets / genPasses)
	res.exact["replayed_packets"] = fmt.Sprint(len(records))
	res.notef("%d passes; %d workers; %.0f delivered packets per batch, %d generated, %d replayed", passes, workers, delivered, genPackets/genPasses, len(records))
	res.attempted = p.batches * int64(len(p.cfgs))
	return res, finishTrace(tr, cfg, "batch_pack", res)
}
