// Command hybridschedd is the online scheduling daemon: the
// estimate -> match -> schedule loop of the paper run as a long-lived
// network service. It hosts a hybridsched.Service — one or more fabric
// shards, any registered matching algorithm — and serves a JSON-lines
// protocol on a TCP listener: clients stream demand in, subscribe to the
// computed schedule frames, checkpoint the service, and read live stats.
// With -load > 0 the daemon drives itself from the flow-level workload
// generators (the published empirical flow-size distributions), so a
// single binary demonstrates the full serve pipeline under live load.
//
// Usage:
//
//	hybridschedd -listen 127.0.0.1:9190 -ports 64 -alg islip -shards 4 \
//	    -epoch 10ms -load 0.4 -dist websearch -span 1us \
//	    -metrics 127.0.0.1:9191
//
// Protocol: one JSON object per line, one reply line per request.
//
//	{"op":"offer","shard":0,"src":1,"dst":2,"bits":12000}
//	{"op":"stats"}
//	{"op":"status"}                     (config + per-shard introspection)
//	{"op":"step"}                       (manual epochs; -epoch 0)
//	{"op":"snapshot"}                   (base64 HSTR checkpoint)
//	{"op":"subscribe","shard":0,"buffer":64,"policy":"oldest"}
//
// subscribe switches the connection into a one-way frame stream:
// {"epoch":..,"shard":..,"match":[..],"pairs":..,"served_bits":..,
// "backlog_bits":..} per line until the client disconnects. Its buffer
// is at most 4096 frames; a deeper one is refused with an error reply.
//
// Ordering and pipelining. A connection's requests are served strictly
// in order and every non-blank line gets exactly one reply line, in the
// same order, so a client may write any number of requests before
// reading a reply. Replies are buffered and flushed before any read that
// can block — whenever the daemon holds no further complete request
// line — and when 64 KiB of them have collected. A client that waits for
// each reply therefore gets it immediately; a client that pipelines a
// burst gets the burst's replies in one write instead of one per
// request, which is worth more than an order of magnitude in offers per
// second (docs/PERFORMANCE.md, "Wire"). The frame stream flushes by the
// same rule: when no further frame is queued. A pipelining client must
// keep reading while it writes bursts larger than the socket buffers,
// as with any pipelined protocol. A request line is at most 1 MiB: a
// longer one gets a bad-request reply and the connection is closed, as
// it is when a write to the client fails.
//
// encoding/json defines the protocol. Lines in the shape above — one
// flat object, these keys spelled exactly, integer and plain string
// values — take a small allocation-free decoder that yields exactly
// what encoding/json would (wire.go, FuzzParseRequest); every other
// line, valid or not, goes to encoding/json itself.
//
// Management plane: -metrics addr starts an HTTP listener serving
// /metrics (the service's live instruments — per-shard epoch-latency
// histograms, throughput counters, backlog gauges — in the Prometheus
// text format) and /statusz (the status introspection as JSON). See
// docs/OBSERVABILITY.md for the metric catalog.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"hybridsched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridschedd:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("hybridschedd", flag.ContinueOnError)
	var (
		listen  = fs.String("listen", "127.0.0.1:9190", "listen address for the JSON-lines API")
		metrics = fs.String("metrics", "", "management-plane listen address serving /metrics and /statusz (empty = disabled)")
		ports   = fs.Int("ports", 32, "fabric port count per shard")
		alg     = fs.String("alg", "islip", "matching algorithm ("+strings.Join(hybridsched.Algorithms(), ", ")+")")
		shards  = fs.Int("shards", 1, "independent fabric shards behind this service")
		work    = fs.Int("workers", 0, "epoch fan-out workers (0 = GOMAXPROCS)")
		slot    = fs.String("slot", "1500B", "demand served per matched pair per epoch (a size, e.g. 1500B)")
		epoch   = fs.Duration("epoch", 10*time.Millisecond, "wall-clock epoch interval (0 = step only on {\"op\":\"step\"})")
		load    = fs.Float64("load", 0, "self-driving workload load per port (0 = external demand only)")
		dist    = fs.String("dist", "websearch", "flow-size distribution for the self-driving workload (websearch, datamining, hadoop, cachefollower)")
		rate    = fs.String("rate", "10Gbps", "line rate for the self-driving workload")
		span    = fs.String("span", "1us", "simulated time one epoch consumes from the workload")
		seed    = fs.Uint64("seed", 1, "seed for algorithms and workloads")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := buildConfig(*ports, *alg, *shards, *work, *slot, *load, *dist, *rate, *span, *seed)
	if err != nil {
		return err
	}
	d, err := newDaemon(cfg)
	if err != nil {
		return err
	}
	defer d.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(out, "hybridschedd: %d-port %s, %d shard(s), serving on %s\n",
		*ports, *alg, d.cfg.Shards, ln.Addr())

	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		msrv := &http.Server{Handler: d.managementHandler()}
		go msrv.Serve(mln)
		defer msrv.Close()
		fmt.Fprintf(out, "hybridschedd: management plane on http://%s/metrics and /statusz\n", mln.Addr())
	}

	if *epoch > 0 {
		go func() {
			if err := d.svc.Run(context.Background(), *epoch); err != nil {
				log.Println("epoch loop:", err)
			}
		}()
	}
	return d.serveListener(ln)
}

// daemon is one running service plus its management surfaces: the
// JSON-lines protocol, the metrics registry every shard's instruments
// live in, and the HTTP management plane rendering that registry.
type daemon struct {
	cfg   hybridsched.ServiceConfig
	svc   *hybridsched.Service
	reg   *hybridsched.MetricsRegistry
	start time.Time
}

func newDaemon(cfg hybridsched.ServiceConfig) (*daemon, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	reg := hybridsched.NewMetricsRegistry()
	cfg.Metrics = reg
	svc, err := hybridsched.NewService(cfg)
	if err != nil {
		return nil, err
	}
	return &daemon{cfg: cfg, svc: svc, reg: reg, start: time.Now()}, nil
}

func (d *daemon) Close() error { return d.svc.Close() }

// managementHandler serves the HTTP management plane: /metrics in the
// Prometheus text exposition format, /statusz as JSON introspection.
func (d *daemon) managementHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", hybridsched.MetricsTextContentType)
		d.reg.WriteText(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(d.status())
	})
	return mux
}

// status collects the introspection document both /statusz and the
// protocol's status op return.
func (d *daemon) status() statusJSON {
	return statusJSON{
		Algorithm:     d.cfg.Algorithm,
		Ports:         d.cfg.Ports,
		Shards:        d.cfg.Shards,
		SlotBits:      int64(d.cfg.SlotBits),
		SelfDriving:   d.cfg.Workload != nil,
		UptimeSeconds: time.Since(d.start).Seconds(),
		ShardStats:    toShardStats(d.svc.Stats()),
	}
}

// buildConfig assembles the ServiceConfig from flag values; it is the
// testable seam between flag parsing and the service.
func buildConfig(ports int, alg string, shards, workers int, slot string,
	load float64, dist, rate, span string, seed uint64) (hybridsched.ServiceConfig, error) {
	slotBits, err := hybridsched.ParseSize(slot)
	if err != nil {
		return hybridsched.ServiceConfig{}, fmt.Errorf("-slot: %w", err)
	}
	cfg := hybridsched.ServiceConfig{
		Ports:     ports,
		Algorithm: alg,
		Seed:      seed,
		SlotBits:  slotBits,
		Shards:    shards,
		Workers:   workers,
	}
	if load > 0 {
		lineRate, err := hybridsched.ParseBitRate(rate)
		if err != nil {
			return cfg, fmt.Errorf("-rate: %w", err)
		}
		epochSpan, err := hybridsched.ParseDuration(span)
		if err != nil {
			return cfg, fmt.Errorf("-span: %w", err)
		}
		sizes, ok := hybridsched.EmpiricalByName(dist)
		if !ok {
			return cfg, fmt.Errorf("-dist: unknown distribution %q", dist)
		}
		cfg.Workload = &hybridsched.TrafficConfig{
			LineRate:  lineRate,
			Load:      load,
			Pattern:   hybridsched.Uniform{},
			Process:   hybridsched.FlowArrivals,
			FlowSizes: sizes,
		}
		cfg.EpochSpan = epochSpan
	}
	return cfg, nil
}

// serveListener accepts connections until the listener closes. Only the
// listener being closed is a clean shutdown; any other accept failure
// (fd exhaustion, a dying interface) is surfaced, not swallowed.
func (d *daemon) serveListener(ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			d.serveConn(conn)
		}()
	}
}

// request is one JSON-lines API call.
type request struct {
	Op     string `json:"op"`
	Shard  int    `json:"shard"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Bits   int64  `json:"bits"`
	Buffer int    `json:"buffer"`
	Policy string `json:"policy"`
}

// response is one reply line. The two replies a busy connection is made
// of are not rendered from it: an accepted offer is the static ackLine
// and a step's frames are appended by appendStepReply, both held to this
// struct's encoding by TestFrameEncoderMatchesJSON.
type response struct {
	OK       bool         `json:"ok"`
	Error    string       `json:"error,omitempty"`
	Stats    []shardStats `json:"stats,omitempty"`
	Frames   []frameJSON  `json:"frames,omitempty"`
	Snapshot string       `json:"snapshot,omitempty"`
	Status   *statusJSON  `json:"status,omitempty"`
}

type shardStats struct {
	Shard       int    `json:"shard"`
	Epochs      uint64 `json:"epochs"`
	IdleEpochs  uint64 `json:"idle_epochs"`
	OfferedBits int64  `json:"offered_bits"`
	ServedBits  int64  `json:"served_bits"`
	BacklogBits int64  `json:"backlog_bits"`
	Subscribers int    `json:"subscribers"`
	Dropped     uint64 `json:"dropped"`

	// Metric-backed fields, from the shard's instruments.
	Offers       uint64 `json:"offers"`
	MatchedPairs uint64 `json:"matched_pairs"`
	EpochNsP50   int64  `json:"epoch_ns_p50"`
	EpochNsP99   int64  `json:"epoch_ns_p99"`
	EpochNsP999  int64  `json:"epoch_ns_p999"`
}

// statusJSON is the introspection document served on /statusz and by the
// protocol's status op.
type statusJSON struct {
	Algorithm     string       `json:"algorithm"`
	Ports         int          `json:"ports"`
	Shards        int          `json:"shards"`
	SlotBits      int64        `json:"slot_bits"`
	SelfDriving   bool         `json:"self_driving"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	ShardStats    []shardStats `json:"shard_stats"`
}

func toShardStats(stats []hybridsched.ServiceStats) []shardStats {
	out := make([]shardStats, len(stats))
	for i, st := range stats {
		out[i] = shardStats{
			Shard:        i,
			Epochs:       st.Epochs,
			IdleEpochs:   st.IdleEpochs,
			OfferedBits:  st.OfferedBits,
			ServedBits:   st.ServedBits,
			BacklogBits:  st.BacklogBits,
			Subscribers:  st.Subscribers,
			Dropped:      st.Dropped,
			Offers:       st.Offers,
			MatchedPairs: st.MatchedPairs,
			EpochNsP50:   st.EpochNsP50,
			EpochNsP99:   st.EpochNsP99,
			EpochNsP999:  st.EpochNsP999,
		}
	}
	return out
}

type frameJSON struct {
	Epoch       uint64 `json:"epoch"`
	Shard       int    `json:"shard"`
	Match       []int  `json:"match"`
	Pairs       int    `json:"pairs"`
	ServedBits  int64  `json:"served_bits"`
	BacklogBits int64  `json:"backlog_bits"`
}

// wireConn is one client connection: a line reader over its input, one
// buffered writer every reply goes through, and the scratch the hot
// replies are encoded in.
type wireConn struct {
	d    *daemon
	in   lineReader
	w    *bufio.Writer
	enc  *json.Encoder // the cold replies; it writes into w
	slow request       // encoding/json's target, kept here so the fast path does not allocate one
	out  []byte        // append-encoded step replies and subscriber frames
}

// serveConn answers one connection's request lines in order until it
// ends: the client closes it, a write fails, a line passes maxLineLen, or
// a subscribe turns it into a frame stream. Replies collect in the
// writer and go out before any read that can block — whenever the
// buffered input holds no complete line — and when the writer fills, so
// a client that waits for each reply gets it at once and a client that
// pipelines a burst gets the burst's replies in one write.
func (d *daemon) serveConn(conn net.Conn) {
	c := &wireConn{
		d:  d,
		in: lineReader{src: conn, buf: make([]byte, connBufSize)},
		w:  bufio.NewWriterSize(conn, connBufSize),
	}
	c.enc = json.NewEncoder(c.w)
	for more := true; more; {
		line, ok := c.in.next()
		if !ok {
			if c.w.Flush() != nil {
				return
			}
			err := c.in.fill()
			if err == nil {
				continue
			}
			if err == errLineTooLong {
				c.reply(response{Error: "bad request: " + err.Error()})
				break
			}
			// The input ended; like bufio.Scanner, serve what it left
			// unterminated.
			line, more = c.in.rest(), false
		}
		if !c.handle(line) {
			break
		}
	}
	c.w.Flush() // the connection is over either way
}

// reply writes a cold reply through encoding/json and reports whether
// the connection is still writable.
func (c *wireConn) reply(resp response) bool {
	return c.enc.Encode(resp) == nil
}

// write writes an already encoded reply line.
func (c *wireConn) write(line []byte) bool {
	_, err := c.w.Write(line)
	return err == nil
}

// handle answers one request line and reports whether the connection
// goes on. The selection between the two decoders is made by the line
// itself: what parseRequest does not accept is encoding/json's.
func (c *wireConn) handle(line []byte) bool {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return true
	}
	req, ok := parseRequest(line)
	if !ok {
		c.slow = request{}
		if err := json.Unmarshal(line, &c.slow); err != nil {
			return c.reply(response{Error: "bad request: " + err.Error()})
		}
		req = c.slow
	}
	svc := c.d.svc
	switch req.Op {
	case "offer":
		if err := svc.OfferShard(req.Shard, req.Src, req.Dst, hybridsched.Size(req.Bits)); err != nil {
			return c.reply(response{Error: err.Error()})
		}
		return c.write(ackLine)
	case "stats":
		return c.reply(response{OK: true, Stats: toShardStats(svc.Stats())})
	case "status":
		st := c.d.status()
		return c.reply(response{OK: true, Status: &st})
	case "step":
		frames, err := svc.Step() // caller-owned frames
		if err != nil {
			return c.reply(response{Error: err.Error()})
		}
		c.out = appendStepReply(c.out[:0], frames)
		return c.write(c.out)
	case "snapshot":
		var buf bytes.Buffer
		if err := svc.Snapshot(&buf); err != nil {
			return c.reply(response{Error: err.Error()})
		}
		return c.reply(response{OK: true, Snapshot: base64.StdEncoding.EncodeToString(buf.Bytes())})
	case "subscribe":
		policy := hybridsched.DropOldestFrame
		switch req.Policy {
		case "", "oldest":
		case "newest":
			policy = hybridsched.DropNewestFrame
		default:
			return c.reply(response{Error: fmt.Sprintf("unknown policy %q", req.Policy)})
		}
		buffer := req.Buffer
		if buffer <= 0 {
			buffer = 64
		}
		sub, err := svc.Subscribe(req.Shard, buffer, policy)
		if err != nil {
			return c.reply(response{Error: err.Error()})
		}
		if c.write(ackLine) {
			c.stream(sub)
		}
		sub.Close()
		return false
	default:
		return c.reply(response{Error: fmt.Sprintf("unknown op %q", req.Op)})
	}
}

// stream turns the connection into a one-way frame stream; whatever
// else the client sent is never read. It ends when the client
// disconnects (a write fails) or the service closes (the channel
// drains). The flush rule is the request loop's: frames collect in the
// writer while more are queued and go out before the wait for the next.
func (c *wireConn) stream(sub *hybridsched.ServiceSubscription) {
	frames := sub.Frames()
	for {
		var f hybridsched.ServiceFrame
		var ok bool
		select {
		case f, ok = <-frames:
		default:
			if c.w.Flush() != nil {
				return
			}
			f, ok = <-frames
		}
		if !ok {
			return
		}
		c.out = append(appendFrame(c.out[:0], f), '\n')
		if !c.write(c.out) {
			return
		}
	}
}
