package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridsched"
)

// startDaemon brings a service up on an ephemeral port in manual-epoch
// mode and returns a dialer for test clients.
func startDaemon(t *testing.T, cfg hybridsched.ServiceConfig) (dial func() *client) {
	dial, _ = startDaemonService(t, cfg)
	return dial
}

func startDaemonService(t *testing.T, cfg hybridsched.ServiceConfig) (dial func() *client, d *daemon) {
	t.Helper()
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.serveListener(ln)
	}()
	t.Cleanup(func() {
		d.Close()
		ln.Close()
		<-done
	})
	return func() *client {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return &client{t: t, conn: conn, r: bufio.NewReader(conn)}
	}, d
}

type client struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

// call sends one request line and decodes one reply line.
func (c *client) call(req request) response {
	c.t.Helper()
	b, _ := json.Marshal(req)
	if _, err := c.conn.Write(append(b, '\n')); err != nil {
		c.t.Fatal(err)
	}
	return c.readResponse()
}

// send writes raw bytes — any number of lines, or part of one — in one
// Write. Replies must arrive within the deadline it sets: a daemon that
// sits on a reply fails the test instead of hanging it.
func (c *client) send(raw string) {
	c.t.Helper()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.conn.Write([]byte(raw)); err != nil {
		c.t.Fatal(err)
	}
}

func (c *client) readResponse() response {
	c.t.Helper()
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		c.t.Fatal(err)
	}
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil {
		c.t.Fatalf("bad reply %q: %v", line, err)
	}
	return resp
}

func (c *client) readFrame() frameJSON {
	c.t.Helper()
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		c.t.Fatal(err)
	}
	var f frameJSON
	if err := json.Unmarshal(line, &f); err != nil {
		c.t.Fatalf("bad frame %q: %v", line, err)
	}
	return f
}

func TestDaemonProtocol(t *testing.T) {
	dial := startDaemon(t, hybridsched.ServiceConfig{
		Ports: 8, Algorithm: "islip", SlotBits: 1000,
	})
	c := dial()

	// A subscriber on a second connection sees the frames the first
	// connection's steps produce.
	sub := dial()
	if resp := sub.call(request{Op: "subscribe", Shard: 0, Buffer: 8}); !resp.OK {
		t.Fatalf("subscribe: %+v", resp)
	}

	if resp := c.call(request{Op: "offer", Src: 2, Dst: 6, Bits: 1500}); !resp.OK {
		t.Fatalf("offer: %+v", resp)
	}
	resp := c.call(request{Op: "step"})
	if !resp.OK || len(resp.Frames) != 1 {
		t.Fatalf("step: %+v", resp)
	}
	f := resp.Frames[0]
	if f.Epoch != 1 || f.ServedBits != 1000 || f.BacklogBits != 500 || f.Match[2] != 6 {
		t.Fatalf("frame: %+v", f)
	}
	if resp := c.call(request{Op: "step"}); !resp.OK || resp.Frames[0].BacklogBits != 0 {
		t.Fatalf("second step: %+v", resp)
	}

	// The subscriber received both frames, in order, with the matching.
	if f := sub.readFrame(); f.Epoch != 1 || f.Match[2] != 6 {
		t.Fatalf("streamed frame 1: %+v", f)
	}
	if f := sub.readFrame(); f.Epoch != 2 || f.ServedBits != 500 {
		t.Fatalf("streamed frame 2: %+v", f)
	}

	// Stats reflect the activity.
	resp = c.call(request{Op: "stats"})
	if !resp.OK || len(resp.Stats) != 1 {
		t.Fatalf("stats: %+v", resp)
	}
	st := resp.Stats[0]
	if st.Epochs != 2 || st.OfferedBits != 1500 || st.ServedBits != 1500 || st.Subscribers != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Snapshot round-trips through the public restore path.
	resp = c.call(request{Op: "snapshot"})
	if !resp.OK || resp.Snapshot == "" {
		t.Fatalf("snapshot: %+v", resp)
	}
	raw, err := base64.StdEncoding.DecodeString(resp.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := hybridsched.RestoreService(hybridsched.ServiceConfig{
		Ports: 8, Algorithm: "islip", SlotBits: 1000,
	}, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Epoch() != 2 {
		t.Fatalf("restored epoch = %d, want 2", restored.Epoch())
	}

	// Errors come back as JSON, not dropped connections.
	if resp := c.call(request{Op: "offer", Src: 0, Dst: 99, Bits: 1}); resp.OK || resp.Error == "" {
		t.Fatalf("bad offer accepted: %+v", resp)
	}
	if resp := c.call(request{Op: "nope"}); resp.OK {
		t.Fatalf("unknown op accepted: %+v", resp)
	}
	if resp := c.call(request{Op: "subscribe", Shard: 7}); resp.OK {
		t.Fatalf("bad shard subscribe accepted: %+v", resp)
	}
	if resp := c.call(request{Op: "subscribe", Policy: "sideways"}); resp.OK {
		t.Fatalf("bad policy accepted: %+v", resp)
	}
}

// TestPipelinedRequests: N request lines in one write yield N replies in
// request order, whichever decoder and whichever encoder each one takes.
func TestPipelinedRequests(t *testing.T) {
	dial := startDaemon(t, hybridsched.ServiceConfig{Ports: 8, Algorithm: "islip", SlotBits: 1000})
	c := dial()
	c.send(strings.Join([]string{
		`{"op":"offer","src":2,"dst":6,"bits":1500}`,
		`{"op":"offer","src":0,"dst":99,"bits":1}`,
		`{"OP":"offer","Src":1,"dst":3,"bits":700}`, // encoding/json folds key case; the fast decoder does not
		`not json`,
		``,
		`{"op":"step"}`,
		`{"op":"nope"}`,
		`{"op":"stats"}`,
		`{"op":"offer","src":4,"dst":5,"bits":1}`,
	}, "\n") + "\n")

	if resp := c.readResponse(); !resp.OK {
		t.Fatalf("offer: %+v", resp)
	}
	if resp := c.readResponse(); resp.OK || !strings.Contains(resp.Error, "outside") {
		t.Fatalf("out-of-range offer: %+v", resp)
	}
	if resp := c.readResponse(); !resp.OK {
		t.Fatalf("case-folded offer: %+v", resp)
	}
	if resp := c.readResponse(); resp.OK || !strings.HasPrefix(resp.Error, "bad request: ") {
		t.Fatalf("malformed line: %+v", resp)
	}
	// The blank line has no reply.
	resp := c.readResponse()
	if !resp.OK || len(resp.Frames) != 1 || resp.Frames[0].Match[2] != 6 || resp.Frames[0].Match[1] != 3 ||
		resp.Frames[0].ServedBits != 1700 || resp.Frames[0].BacklogBits != 500 {
		t.Fatalf("step: %+v", resp)
	}
	if resp := c.readResponse(); resp.OK || resp.Error != `unknown op "nope"` {
		t.Fatalf("unknown op: %+v", resp)
	}
	if resp := c.readResponse(); !resp.OK || len(resp.Stats) != 1 || resp.Stats[0].OfferedBits != 2200 {
		t.Fatalf("stats: %+v", resp)
	}
	if resp := c.readResponse(); !resp.OK {
		t.Fatalf("last offer: %+v", resp)
	}

	// A burst larger than the daemon's buffers: one reply each, none lost
	// where the buffers wrap.
	const burst = 3000
	c.send(strings.Repeat(`{"op":"offer","src":1,"dst":2,"bits":10}`+"\n", burst) + `{"op":"stats"}` + "\n")
	for i := 0; i < burst; i++ {
		if resp := c.readResponse(); !resp.OK || resp.Stats != nil {
			t.Fatalf("burst reply %d: %+v", i, resp)
		}
	}
	if resp := c.readResponse(); !resp.OK || resp.Stats[0].OfferedBits != 2201+10*burst {
		t.Fatalf("stats after the burst: %+v", resp)
	}
}

// TestReplyBeforeLineCompleted is the flush rule: a complete request
// followed by half a line is answered before the daemon waits for the
// rest of the line — the half line must not hold the reply back.
func TestReplyBeforeLineCompleted(t *testing.T) {
	dial := startDaemon(t, hybridsched.ServiceConfig{Ports: 8, Algorithm: "islip", SlotBits: 1000})
	c := dial()
	c.send(`{"op":"offer","src":2,"dst":6,"bits":1500}` + "\n" + `{"op":"st`)
	if resp := c.readResponse(); !resp.OK {
		t.Fatalf("offer: %+v", resp)
	}
	c.send(`ep"}` + "\n")
	if resp := c.readResponse(); !resp.OK || len(resp.Frames) != 1 || resp.Frames[0].Match[2] != 6 {
		t.Fatalf("step: %+v", resp)
	}
}

// TestLoneStepReachesSubscriber: the subscriber stream flushes when its
// channel runs empty, so one frame arrives without any further traffic
// to push it out.
func TestLoneStepReachesSubscriber(t *testing.T) {
	dial := startDaemon(t, hybridsched.ServiceConfig{Ports: 8, Algorithm: "islip", SlotBits: 1000})
	sub := dial()
	sub.send(`{"op":"subscribe"}` + "\n")
	if resp := sub.readResponse(); !resp.OK {
		t.Fatalf("subscribe: %+v", resp)
	}
	if resp := dial().call(request{Op: "step"}); !resp.OK {
		t.Fatalf("step: %+v", resp)
	}
	if f := sub.readFrame(); f.Epoch != 1 || len(f.Match) != 8 {
		t.Fatalf("streamed frame: %+v", f)
	}
}

// TestSubscribeBufferRefused: a subscribe asking for a channel no
// machine can allocate used to panic the whole daemon in makechan. It is
// an error reply now, through either decoder, and the connection and the
// daemon go on serving.
func TestSubscribeBufferRefused(t *testing.T) {
	dial := startDaemon(t, hybridsched.ServiceConfig{Ports: 8, Algorithm: "islip", SlotBits: 1000})
	c := dial()
	for _, line := range []string{
		`{"op":"subscribe","buffer":4611686018427387904}`,
		`{"op":"subscribe","buffer":4097}`,
	} {
		c.send(line + "\n")
		if resp := c.readResponse(); resp.OK || !strings.Contains(resp.Error, "buffer") {
			t.Fatalf("%s: %+v", line, resp)
		}
	}
	if resp := c.call(request{Op: "stats"}); !resp.OK || resp.Stats[0].Subscribers != 0 {
		t.Fatalf("stats after refused subscribes: %+v", resp)
	}
	if resp := dial().call(request{Op: "subscribe", Buffer: 4096}); !resp.OK {
		t.Fatalf("subscribe at the cap: %+v", resp)
	}
}

func TestDaemonSelfDriving(t *testing.T) {
	cfg, err := buildConfig(16, "islip", 2, 1, "4000B", 0.4, "cachefollower", "10Gbps", "1us", 7)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workload == nil || cfg.EpochSpan != hybridsched.Microsecond {
		t.Fatalf("workload not configured: %+v", cfg)
	}
	dial := startDaemon(t, cfg)
	c := dial()
	for i := 0; i < 200; i++ {
		if resp := c.call(request{Op: "step"}); !resp.OK || len(resp.Frames) != 2 {
			t.Fatalf("step %d: %+v", i, resp)
		}
	}
	resp := c.call(request{Op: "stats"})
	var offered int64
	for _, st := range resp.Stats {
		offered += st.OfferedBits
	}
	if offered == 0 {
		t.Fatal("self-driving workload offered nothing")
	}
}

// TestDaemonConcurrentEpochs runs the daemon the way production does —
// a background wall-clock epoch loop — while several connections issue
// step/offer/stats ops concurrently. Under -race this pins that step
// replies carry caller-owned matchings (no shared scratch with the
// ticking loop).
func TestDaemonConcurrentEpochs(t *testing.T) {
	dial, d := startDaemonService(t, hybridsched.ServiceConfig{
		Ports: 16, Algorithm: "islip", SlotBits: 1000, Shards: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		d.svc.Run(ctx, 200*time.Microsecond)
	}()
	defer func() { cancel(); <-runDone }()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dial()
			for i := 0; i < 50; i++ {
				if resp := c.call(request{Op: "offer", Shard: w % 2, Src: i % 16, Dst: (i + 3) % 16, Bits: 500}); !resp.OK {
					t.Errorf("offer: %+v", resp)
					return
				}
				resp := c.call(request{Op: "step"})
				if !resp.OK || len(resp.Frames) != 2 {
					t.Errorf("step: %+v", resp)
					return
				}
				for _, f := range resp.Frames {
					for _, out := range f.Match {
						if out < -1 || out >= 16 {
							t.Errorf("corrupt matching in reply: %+v", f)
							return
						}
					}
				}
				if resp := c.call(request{Op: "stats"}); !resp.OK {
					t.Errorf("stats: %+v", resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestBuildConfigErrors(t *testing.T) {
	if _, err := buildConfig(8, "islip", 1, 0, "bogus", 0, "", "", "", 1); err == nil {
		t.Error("bad slot size accepted")
	}
	if _, err := buildConfig(8, "islip", 1, 0, "1500B", 0.5, "nope", "10Gbps", "1us", 1); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := buildConfig(8, "islip", 1, 0, "1500B", 0.5, "websearch", "fast", "1us", 1); err == nil {
		t.Error("bad rate accepted")
	}
	if _, err := buildConfig(8, "islip", 1, 0, "1500B", 0.5, "websearch", "10Gbps", "soon", 1); err == nil {
		t.Error("bad span accepted")
	}
}
