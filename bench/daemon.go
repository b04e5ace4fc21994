package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hybridsched"
)

// daemon_wire drives the real cmd/hybridschedd binary over loopback TCP:
// one driver connection pipelining JSON-lines offers and a step per
// round, one subscriber connection receiving every frame. Closed loop,
// one round in flight; each round offers 0.8 of what one epoch serves,
// so the backlog stays bounded. The in-process stages are a few percent
// of a round: this workload measures the wire.
const (
	wirePorts  = 64
	wireBits   = 1200
	wireWarmup = 200 // rounds of the untimed prefix; part of set-up
	wireBlock  = 20  // rounds per throughput sample
)

var okReply = []byte(`{"ok":true}`)

type wireFrame struct {
	Epoch       uint64 `json:"epoch"`
	Match       []int  `json:"match"`
	Pairs       int    `json:"pairs"`
	ServedBits  int64  `json:"served_bits"`
	BacklogBits int64  `json:"backlog_bits"`
}

type wireReply struct {
	OK     bool        `json:"ok"`
	Error  string      `json:"error"`
	Frames []wireFrame `json:"frames"`
	Stats  []struct {
		OfferedBits int64  `json:"offered_bits"`
		ServedBits  int64  `json:"served_bits"`
		BacklogBits int64  `json:"backlog_bits"`
		Dropped     uint64 `json:"dropped"`
	} `json:"stats"`
}

// wireSession is one running daemon with its two connections.
type wireSession struct {
	res    *result
	cmd    *exec.Cmd
	drv    net.Conn
	drvR   *bufio.Reader
	sub    net.Conn
	cells  []cell
	offers []byte // one round's offer lines, encoded once
	piped  []byte // the offer lines and the step line
	rounds int64
	prefix int // rounds in the untimed prefix

	bytesIn, bytesOut int64 // on the driver connection, daemon's point of view
	digest            *frameDigest

	subFrames atomic.Int64
	subDone   chan string   // the subscriber's digest of its first prefix frames
	subExit   chan struct{} // closed when the subscriber goroutine has ended
}

// buildDaemon compiles cmd/hybridschedd from the checkout into
// .bench_build/, the one directory the benchmark writes to.
func buildDaemon(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "hybridschedd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hybridschedd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/hybridschedd: %w\n%s", err, out)
	}
	return bin, nil
}

// setupWire builds and starts the daemon, connects, subscribes and runs
// the untimed prefix.
func setupWire(cfg runConfig, res *result) (*wireSession, error) {
	bin, err := buildDaemon(cfg.root)
	if err != nil {
		return nil, err
	}
	s := &wireSession{
		res:     res,
		cells:   buildCells(wirePorts, cfg.seed),
		prefix:  cfg.scaled(wireWarmup, 5),
		digest:  newFrameDigest(),
		subDone: make(chan string, 1),
	}
	for _, c := range s.cells {
		s.offers = fmt.Appendf(s.offers, `{"op":"offer","src":%d,"dst":%d,"bits":%d}`+"\n", c.src, c.dst, wireBits)
	}
	s.piped = append(bytes.Clone(s.offers), stepLine...)
	s.cmd = exec.Command(bin, "-listen", "127.0.0.1:0", "-ports", fmt.Sprint(wirePorts),
		"-alg", "islip", "-epoch", "0", "-seed", fmt.Sprint(cfg.seed))
	s.cmd.Stderr = os.Stderr
	// The daemon must not outlive the harness, whatever ends the harness.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	if err := s.connect(stdout); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < s.prefix; i++ {
		f, err := s.round(nil, false)
		if err != nil {
			s.close()
			return nil, err
		}
		s.digest.add(f.Epoch, f.Match, f.ServedBits, f.BacklogBits)
	}
	s.bytesIn = int64(s.prefix) * int64(len(s.piped))
	return s, nil
}

// connect reads the listen address from the daemon's banner, then opens
// the driver and the subscriber connection.
func (s *wireSession) connect(stdout io.Reader) error {
	banner, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return fmt.Errorf("daemon banner: %w", err)
	}
	_, addr, ok := strings.Cut(strings.TrimSpace(banner), "serving on ")
	if !ok {
		return fmt.Errorf("daemon banner %q names no address", banner)
	}
	if s.drv, err = net.Dial("tcp", addr); err != nil {
		return err
	}
	s.drvR = bufio.NewReaderSize(s.drv, 64<<10)
	if s.sub, err = net.Dial("tcp", addr); err != nil {
		return err
	}
	if _, err := io.WriteString(s.sub, `{"op":"subscribe","shard":0,"buffer":64,"policy":"oldest"}`+"\n"); err != nil {
		return err
	}
	subR := bufio.NewReaderSize(s.sub, 64<<10)
	line, err := subR.ReadSlice('\n')
	if err != nil || !bytes.Equal(bytes.TrimSpace(line), okReply) {
		return fmt.Errorf("subscribe refused: %q %v", line, err)
	}
	s.subExit = make(chan struct{})
	go s.subscriber(subR)
	return nil
}

// subscriber counts the frames on the subscriber connection and digests
// the first prefix of them. It ends when the connection closes.
func (s *wireSession) subscriber(r *bufio.Reader) {
	defer close(s.subExit)
	d := newFrameDigest()
	for n := 0; ; n++ {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return
		}
		if n < s.prefix {
			var f wireFrame
			if err := json.Unmarshal(line, &f); err != nil {
				s.subDone <- "undecodable frame: " + err.Error()
				return
			}
			d.add(f.Epoch, f.Match, f.ServedBits, f.BacklogBits)
			if n == s.prefix-1 {
				s.subDone <- d.hex()
			}
		}
		s.subFrames.Add(1)
	}
}

var stepLine = []byte(`{"op":"step"}` + "\n")

// round sends one round — every cell offered once, then a step — and
// reads the 513 replies. The lines are pipelined in one write, traced or
// not, so both runs drive the same protocol. A split round sends the
// step only once the offers are acknowledged, which is the one way to
// tell the step's own round trip apart; it records nothing else.
func (s *wireSession) round(tr *tracer, split bool) (wireFrame, error) {
	s.rounds++
	lines := s.piped
	if split {
		lines = s.offers
	}
	t0 := tr.now()
	if _, err := s.drv.Write(lines); err != nil {
		return wireFrame{}, err
	}
	t1 := tr.now()
	for range s.cells {
		line, err := s.drvR.ReadSlice('\n')
		if err != nil {
			return wireFrame{}, err
		}
		s.bytesOut += int64(len(line))
		if !bytes.Equal(line[:len(line)-1], okReply) {
			s.res.failed++
		}
	}
	t2 := tr.now()
	var step []byte
	if split {
		step = stepLine
	}
	reply, err := s.request(step)
	if err != nil {
		return wireFrame{}, err
	}
	t3 := tr.now()
	if split {
		tr.add(spStepRTT, s.rounds, t2, t3)
	} else {
		tr.add(spRound, s.rounds, t0, t3)
		tr.add(spWrite, s.rounds, t0, t1)
		tr.add(spAck, s.rounds, t1, t3)
	}
	if !reply.OK || len(reply.Frames) != 1 {
		s.res.failed++
		return wireFrame{}, fmt.Errorf("round %d: step refused: %s", s.rounds, reply.Error)
	}
	f := reply.Frames[0]
	if err := hybridsched.Matching(f.Match).Validate(); err != nil {
		s.res.failf("round %d: %v", s.rounds, err)
	}
	return f, nil
}

// request writes one line (when not nil) on the driver connection and
// decodes the reply line.
func (s *wireSession) request(line []byte) (wireReply, error) {
	var reply wireReply
	if line != nil {
		if _, err := s.drv.Write(line); err != nil {
			return reply, err
		}
	}
	raw, err := s.drvR.ReadSlice('\n')
	if err != nil {
		return reply, err
	}
	s.bytesOut += int64(len(raw))
	return reply, json.Unmarshal(raw, &reply)
}

// run runs rounds for d and returns each round's wall time in
// nanoseconds and one offers-per-second sample per block.
func (s *wireSession) run(d time.Duration, block int, tr *tracer, split bool) (roundNS, perSec []float64, err error) {
	perSec, err = timedBlocks(d, float64(block*len(s.cells)), func() error {
		for i := 0; i < block; i++ {
			t0 := time.Now()
			if _, err := s.round(tr, split); err != nil {
				return err
			}
			roundNS = append(roundNS, float64(time.Since(t0)))
		}
		return nil
	})
	return roundNS, perSec, err
}

// finish checks the daemon's books and the subscriber stream, and
// returns the frames the subscriber received and the daemon dropped.
func (s *wireSession) finish() (frames, dropped int64, err error) {
	reply, err := s.request([]byte(`{"op":"stats"}` + "\n"))
	if err != nil {
		return 0, 0, err
	}
	if !reply.OK || len(reply.Stats) != 1 {
		return 0, 0, fmt.Errorf("stats refused: %s", reply.Error)
	}
	st := reply.Stats[0]
	if st.OfferedBits != st.ServedBits+st.BacklogBits {
		s.res.failf("conservation: offered %d != served %d + backlog %d", st.OfferedBits, st.ServedBits, st.BacklogBits)
	}
	if want := s.rounds * int64(len(s.cells)) * wireBits; st.OfferedBits != want {
		s.res.failf("daemon counted %d offered bits, the harness offered %d", st.OfferedBits, want)
	}
	dropped = int64(st.Dropped)
	// Frames already stepped reach the subscriber connection a moment
	// after the step's reply; wait for the stream to catch up.
	for deadline := time.Now().Add(5 * time.Second); s.subFrames.Load()+dropped < s.rounds; {
		if time.Now().After(deadline) {
			s.res.failf("subscriber received %d frames and %d were dropped, of %d stepped", s.subFrames.Load(), dropped, s.rounds)
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case got := <-s.subDone:
		if want := s.digest.hex(); got != want {
			s.res.failf("subscriber stream digest %s differs from the step replies' %s", got, want)
		}
	default:
		s.res.failf("subscriber stream ended before its first %d frames", s.prefix)
	}
	return s.subFrames.Load(), dropped, nil
}

// close stops the daemon and waits for it.
func (s *wireSession) close() {
	if s.drv != nil {
		s.drv.Close()
	}
	if s.sub != nil {
		s.sub.Close()
	}
	if s.subExit != nil {
		<-s.subExit
	}
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// inprocRounds drives the identical rounds through an in-process
// Service: the reference the daemon's frames must equal, and the cost of
// a round with the wire taken away.
func inprocRounds(cfg runConfig, cells []cell, prefix, rounds int, tr *tracer) (digest string, err error) {
	svc, err := hybridsched.NewService(hybridsched.ServiceConfig{
		Ports: wirePorts, Algorithm: "islip", Seed: cfg.seed, SlotBits: slotBits,
	})
	if err != nil {
		return "", err
	}
	defer svc.Close()
	d := newFrameDigest()
	for i := 1; i <= rounds; i++ {
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		for _, c := range cells {
			if err := svc.Offer(int(c.src), int(c.dst), wireBits); err != nil {
				return "", err
			}
		}
		frames, err := svc.Step()
		if err != nil {
			return "", err
		}
		if tr != nil {
			tr.add(spInprocRound, int64(i), t0, tr.now())
		}
		if f := frames[0]; i <= prefix {
			d.add(f.Epoch, f.Match, f.ServedBits, f.BacklogBits)
		}
	}
	return d.hex(), nil
}

func runDaemonWire(cfg runConfig) (*result, error) {
	res := newResult()
	s, setupS, err := setupTimes(
		func() (*wireSession, error) { return setupWire(cfg, res) },
		(*wireSession).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	pid := s.cmd.Process.Pid
	block := cfg.scaled(wireBlock, 2)
	measure := time.Duration(cfg.seconds * float64(time.Second))
	offersPerRound := float64(len(s.cells))
	res.exact["frames_digest"] = s.digest.hex()
	res.exact["prefix_rounds"] = fmt.Sprint(s.prefix)
	res.exact["prefix_bytes_in"] = fmt.Sprint(s.bytesIn)
	res.exact["prefix_bytes_out"] = fmt.Sprint(s.bytesOut)
	bytesInPerOffer := float64(s.bytesIn) / (float64(s.prefix) * offersPerRound)
	bytesOutPerOffer := float64(s.bytesOut) / (float64(s.prefix) * offersPerRound)

	// readCPU is the CPU time used so far by the daemon and by the harness.
	readCPU := func() (daemon, own float64, err error) {
		daemon, err1 := cpuSeconds(pid)
		own, err2 := cpuSeconds(os.Getpid())
		return daemon, own, errors.Join(err1, err2)
	}
	// A traced run spends five eighths of the time on pipelined rounds with
	// spans, one eighth on split rounds for the step's round trip, and the
	// last quarter, like the whole of an untraced run, on plain rounds.
	var tr *tracer
	var tracedPerSec []float64
	var tracedOffers, tracedS, daemonCPU, ownCPU float64
	if cfg.trace {
		tr = newTracer()
		cpu0, own0, err := readCPU()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		roundNS, perSec, err := s.run(measure*5/8, block, tr, false)
		if err != nil {
			return nil, err
		}
		tracedPerSec = perSec
		tracedS = time.Since(t0).Seconds()
		tracedOffers = float64(len(roundNS)) * offersPerRound
		cpu1, own1, err := readCPU()
		if err != nil {
			return nil, err
		}
		daemonCPU, ownCPU = cpu1-cpu0, own1-own0
		if _, _, err := s.run(measure/8, block, tr, true); err != nil {
			return nil, err
		}
		measure /= 4
	}
	roundNS, perSec, err := s.run(measure, block, nil, false)
	if err != nil {
		return nil, err
	}
	subFrames, dropped, err := s.finish()
	if err != nil {
		return nil, err
	}
	res.failed += dropped
	res.attempted = s.rounds * (int64(len(s.cells)) + 2) // offers, the step, the subscriber's frame
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return nil, err
	}

	inprocN := s.prefix
	if cfg.trace {
		inprocN = int(s.rounds)
	}
	ref, err := inprocRounds(cfg, s.cells, s.prefix, inprocN, tr)
	if err != nil {
		return nil, err
	}
	if got := s.digest.hex(); got != ref {
		res.failf("daemon frames digest %s differs from the in-process service's %s", got, ref)
	}

	if !cfg.trace {
		res.metrics["setup_s"] = setupS
		res.metrics["throughput_per_s"] = median(perSec)
		res.metrics["latency_us_p50"] = median(roundNS) / 1e3
		res.metrics["peak_rss_mb"] = rss
		res.notef("throughput_per_s counts offers; median of %d blocks of %d rounds of %d offers, loopback TCP", len(perSec), block, len(s.cells))
		res.notef("latency_us_p50 is one round, first byte written to last reply read, %d samples; peak_rss_mb is the daemon's", len(roundNS))
		return res, nil
	}
	m := res.metrics
	inprocP50 := median(tr.durations(spInprocRound))
	m["hybridschedd.cpu_us_per_offer"] = 1e6 * daemonCPU / tracedOffers
	m["hybridschedd.bytes_in_per_offer"] = bytesInPerOffer
	m["hybridschedd.bytes_out_per_offer"] = bytesOutPerOffer
	m["hybridschedd.step_rtt_us_p50"] = median(tr.durations(spStepRTT)) / 1e3
	m["hybridschedd.round_ms_p99"] = p99(res, "hybridschedd.round_ms_p99", tr.durations(spRound)) / 1e6
	m["hybridschedd.inproc_round_ms_p50"] = inprocP50 / 1e6
	m["hybridschedd.wire_share"] = 1 - inprocP50/median(roundNS)
	m["hybridschedd.sub_frames"] = float64(subFrames)
	m["hybridschedd.sub_dropped"] = float64(dropped)
	// The generator's share of the closed loop's critical path: reading
	// replies overlaps the daemon's work on later offers, writing does not.
	m["loadgen.busy_frac"] = tr.total(spWrite) / tr.total(spRound)
	m["trace.overhead_frac"] = 1 - median(tracedPerSec)/median(perSec)
	if m["loadgen.busy_frac"] >= 0.5 {
		res.notef("WARNING: loadgen.busy_frac %.2f >= 0.5: the numbers measure the load generator", m["loadgen.busy_frac"])
	}
	res.notef("loopback TCP; pipelined round p50 %.3f ms over %d rounds, in-process round p50 %.4f ms; harness CPU over wall %.2f, most of it reading one reply line per offer",
		median(roundNS)/1e6, len(roundNS), inprocP50/1e6, ownCPU/tracedS)
	return res, finishTrace(tr, cfg, "daemon_wire", res)
}
