package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanKind names a span. The harness records spans around its own calls
// into each layer; spans inside the program are a later change.
type spanKind uint8

const (
	spEpoch spanKind = iota // one serve epoch: offer burst, Step, shadow pipeline
	spServeOffer
	spServeStep
	spShadow
	spDemandAdd
	spDemandCopyFrom
	spMatchSchedule
	spDemandDrain
	spCheck
	spRound // one pipelined daemon round
	spWrite
	spAck
	spStepRTT // of a split round, whose step waits for the offers' acknowledgements
	spInprocRound
	spBatch // one batch_pack pass over the four ways of running the pack
	spRunScenarios
	spSerial
	spTrafficGen
	spTraceReplay
	spKinds
)

// spanInfo gives each kind its name and the kind that caused it.
var spanInfo = [spKinds]struct {
	name   string
	parent spanKind
	root   bool
}{
	spEpoch:          {name: "epoch", root: true},
	spServeOffer:     {name: "serve.Offer", parent: spEpoch},
	spServeStep:      {name: "serve.Step", parent: spEpoch},
	spShadow:         {name: "shadow", parent: spEpoch},
	spDemandAdd:      {name: "demand.Add", parent: spShadow},
	spDemandCopyFrom: {name: "demand.CopyFrom", parent: spShadow},
	spMatchSchedule:  {name: "match.Schedule", parent: spShadow},
	spDemandDrain:    {name: "demand.drain", parent: spShadow},
	spCheck:          {name: "check", parent: spEpoch},
	spRound:          {name: "round", root: true},
	spWrite:          {name: "write", parent: spRound},
	spAck:            {name: "ack", parent: spRound},
	spStepRTT:        {name: "step_rtt", root: true},
	spInprocRound:    {name: "inproc.round", root: true},
	spBatch:          {name: "batch", root: true},
	spRunScenarios:   {name: "runner.RunScenarios", parent: spBatch},
	spSerial:         {name: "runner.serial", parent: spBatch},
	spTrafficGen:     {name: "traffic.gen", parent: spBatch},
	spTraceReplay:    {name: "trace.replay", parent: spBatch},
}

// span is one recorded interval. Spans of one epoch, round or batch
// share its number as id.
type span struct {
	kind       spanKind
	id         int64
	start, end int64 // nanoseconds since the tracer started
}

// tracer keeps spans in memory; they are written out when the workload
// ends. A nil tracer reads no clock and records nothing, so the untraced
// run shares the traced run's code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<20)}
}

// now is the tracer's clock.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) add(kind spanKind, id, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{kind: kind, id: id, start: start, end: end})
}

// durations returns the lengths of every span of one kind, in
// nanoseconds, in recording order.
func (t *tracer) durations(kind spanKind) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.kind == kind {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// total is the summed length of every span of one kind, in nanoseconds.
func (t *tracer) total(kind spanKind) float64 {
	return sum(t.durations(kind))
}

// summary lists, per span name, the count, total time and self time: a
// span's duration minus the part its child spans cover.
func (t *tracer) summary() []string {
	var count, total, children [spKinds]float64
	for _, s := range t.spans {
		d := float64(s.end - s.start)
		count[s.kind]++
		total[s.kind] += d
		if info := spanInfo[s.kind]; !info.root {
			children[info.parent] += d
		}
	}
	var lines []string
	for k := spanKind(0); k < spKinds; k++ {
		if count[k] == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("span %-20s n=%-8.0f total %10.3f ms  self %10.3f ms",
			spanInfo[k].name, count[k], total[k]/1e6, (total[k]-children[k])/1e6))
	}
	return lines
}

// write emits the environment stamp and every span as JSON lines.
func (t *tracer) write(path string, env envStamp, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type header struct {
		envStamp
		Workload string `json:"workload"`
	}
	type record struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  string `json:"parent"`
		ID      int64  `json:"id"`
	}
	err = enc.Encode(header{env, workload})
	for _, s := range t.spans {
		if err != nil {
			break
		}
		info := spanInfo[s.kind]
		rec := record{Name: info.name, StartNS: s.start, EndNS: s.end, ID: s.id}
		if !info.root {
			rec.Parent = spanInfo[info.parent].name
		}
		err = enc.Encode(rec)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// finishTrace closes a traced run: the self-time summary goes into the
// notes and the spans to cfg.spans, when one was asked for.
func finishTrace(tr *tracer, cfg runConfig, workload string, res *result) error {
	res.notes = append(res.notes, tr.summary()...)
	if cfg.spans == "" {
		return nil
	}
	if err := tr.write(cfg.spans, cfg.env, workload); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	res.notef("%d spans written to %s", len(tr.spans), cfg.spans)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile is the q-quantile (nearest rank) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99 is the 99th percentile, reported only where at least ten samples
// lie beyond it; with fewer it is 0. A note gives the sample count.
func p99(res *result, name string, xs []float64) float64 {
	if len(xs) < 1000 {
		res.notef("%s: %d samples, too few for a p99 (need 1000)", name, len(xs))
		return 0
	}
	res.notef("%s: %d samples", name, len(xs))
	return quantile(xs, 0.99)
}
