package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"hybridsched"
)

// wireLines are the request lines the README, the package comment and
// the benchmark harness send: the shapes the fast decoder exists for.
var wireLines = []string{
	`{"op":"offer","shard":0,"src":1,"dst":2,"bits":12000}`,
	`{"op":"offer","src":1,"dst":2,"bits":12000}`,
	`{"op":"offer","src":63,"dst":0,"bits":1200}`,
	`{"op":"stats"}`,
	`{"op":"status"}`,
	`{"op":"step"}`,
	`{"op":"snapshot"}`,
	`{"op":"subscribe","shard":0,"buffer":64}`,
	`{"op":"subscribe","shard":0,"buffer":64,"policy":"oldest"}`,
	`{"op":"subscribe","policy":"newest"}`,
	` { "op" : "offer" , "src" : -1 , "dst" : 0 , "bits" : 999999999999999999 } `,
}

// slowLines are lines the fast decoder must leave to encoding/json:
// valid requests in a spelling it does not read, and invalid ones whose
// error text encoding/json words.
var slowLines = []string{
	`{}`,
	`{"OP":"offer","Src":1}`,
	`{"op":"of\u0066er"}`,
	`{"o\u0070":"offer"}`,
	`{"op":"offer","op":"step"}`,
	`{"op":"offer","bits":1e3}`,
	`{"op":"offer","bits":1.5}`,
	`{"op":"offer","src":01}`,
	`{"op":"offer","src":"1"}`,
	`{"op":null}`,
	`{"op":"offer","note":{"nested":[1,2]}}`,
	`{"op":"nope"}`,
	`{"op":"subscribe","policy":"sideways"}`,
	`{"op":"subscribe","buffer":4611686018427387904}`,
	`{"op":"offer","bits":9223372036854775808}`,
	`{"op":"offer"} trailing`,
	`{"op":"offer",}`,
	`{"op":"offer"`,
	`{"op":"a\"offer"}`,
	`[1,2]`,
	`"offer"`,
	"{\"op\":\"offer\"\v}",
}

func TestParseRequestSelection(t *testing.T) {
	for _, line := range wireLines {
		got, ok := parseRequest([]byte(line))
		if !ok {
			t.Errorf("fast decoder refused %s", line)
			continue
		}
		var want request
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if got != want {
			t.Errorf("%s: fast %+v, encoding/json %+v", line, got, want)
		}
	}
	for _, line := range slowLines {
		if got, ok := parseRequest([]byte(line)); ok {
			t.Errorf("fast decoder accepted %s as %+v", line, got)
		}
	}
}

// FuzzParseRequest is the differential contract: whatever the fast
// decoder accepts, encoding/json accepts and decodes to the same
// request. (The converse is not required — refusing is always safe.)
func FuzzParseRequest(f *testing.F) {
	for _, line := range wireLines {
		f.Add([]byte(line))
	}
	for _, line := range slowLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := parseRequest(line)
		if !ok {
			if got != (request{}) {
				t.Fatalf("refused %q but returned %+v", line, got)
			}
			return
		}
		var want request
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("fast decoder accepted %q, encoding/json says %v", line, err)
		}
		if got != want {
			t.Fatalf("%q: fast %+v, encoding/json %+v", line, got, want)
		}
	})
}

// toFrameJSON is the reference the append encoder is held to: the struct
// encoding/json renders a frame from.
func toFrameJSON(f hybridsched.ServiceFrame) frameJSON {
	return frameJSON{
		Epoch:       f.Epoch,
		Shard:       f.Shard,
		Match:       f.Match,
		Pairs:       f.Pairs,
		ServedBits:  f.ServedBits,
		BacklogBits: f.BacklogBits,
	}
}

func randomFrame(rng *rand.Rand) hybridsched.ServiceFrame {
	f := hybridsched.ServiceFrame{
		Epoch:       rng.Uint64() >> uint(rng.Intn(64)),
		Shard:       rng.Intn(1 << uint(rng.Intn(16))),
		Pairs:       rng.Intn(4096),
		ServedBits:  rng.Int63() >> uint(rng.Intn(63)),
		BacklogBits: rng.Int63() >> uint(rng.Intn(63)),
	}
	if rng.Intn(8) == 0 {
		f.BacklogBits = -f.BacklogBits // not produced, still encoded like encoding/json
	}
	switch n := rng.Intn(40); {
	case n == 0: // a nil matching is "null", an empty one "[]"
	case n == 1:
		f.Match = hybridsched.Matching{}
	default:
		f.Match = make(hybridsched.Matching, n)
		for i := range f.Match {
			f.Match[i] = rng.Intn(n+1) - 1 // -1 is unmatched
		}
	}
	return f
}

func TestFrameEncoderMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var out []byte
	for i := 0; i < 2000; i++ {
		f := randomFrame(rng)
		want, err := json.Marshal(toFrameJSON(f))
		if err != nil {
			t.Fatal(err)
		}
		if out = appendFrame(out[:0], f); !bytes.Equal(out, want) {
			t.Fatalf("frame %+v:\nappend %s\njson   %s", f, out, want)
		}
	}
	// The whole step reply, as the json.Encoder the cold replies still
	// use writes it — zero frames (omitempty) to several.
	for n := 0; n < 5; n++ {
		frames := make([]hybridsched.ServiceFrame, n)
		reply := response{OK: true}
		for i := range frames {
			frames[i] = randomFrame(rng)
			reply.Frames = append(reply.Frames, toFrameJSON(frames[i]))
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(reply); err != nil {
			t.Fatal(err)
		}
		if out = appendStepReply(out[:0], frames); !bytes.Equal(out, want.Bytes()) {
			t.Fatalf("%d frames:\nappend %s\njson   %s", n, out, want.Bytes())
		}
	}
	var ack bytes.Buffer
	json.NewEncoder(&ack).Encode(response{OK: true})
	if !bytes.Equal(ackLine, ack.Bytes()) {
		t.Fatalf("ackLine %q, json %q", ackLine, ack.Bytes())
	}
}

// pipeDaemon serves one end of an in-memory connection and returns the
// other; done closes when serveConn has returned.
func pipeDaemon(t testing.TB, cfg hybridsched.ServiceConfig) (client net.Conn, done <-chan struct{}) {
	t.Helper()
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		defer server.Close()
		d.serveConn(server)
	}()
	t.Cleanup(func() {
		client.Close()
		<-ended
		d.Close()
	})
	return client, ended
}

// offerBurst is n offer lines over a 64-port fabric.
func offerBurst(n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = fmt.Appendf(b, `{"op":"offer","src":%d,"dst":%d,"bits":1200}`+"\n", i%64, (i+7)%64)
	}
	return b
}

// TestServeConnOfferAllocFree is the wire path's zero-alloc contract:
// steady-state pipelined offers cost the daemon loop nothing — line
// split, fast decode, Offer, static acknowledgement, one flush per
// burst. The client side is preallocated and net.Pipe is synchronous,
// so AllocsPerRun (process-wide) counts the serveConn goroutine alone.
// `make lint` loads cmd/ too (schedlint ./...), so hotpathalloc checks
// the annotated roots in wire.go — lineReader.next, parseRequest,
// appendStepReply — by shape; the dispatch between them is covered only
// here, because its static closure runs into Service.OfferShard, whose
// error paths format with fmt.
func TestServeConnOfferAllocFree(t *testing.T) {
	client, _ := pipeDaemon(t, hybridsched.ServiceConfig{Ports: 64, Algorithm: "islip", SlotBits: 12000})
	const burst = 64 // well inside connBufSize, so one Write is one daemon read
	lines := offerBurst(burst)
	acks := make([]byte, burst*len(ackLine))
	round := func() {
		if _, err := client.Write(lines); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, acks); err != nil {
			t.Fatal(err)
		}
	}
	round() // first use sizes the daemon's demand rows
	if !bytes.Equal(acks, bytes.Repeat(ackLine, burst)) {
		t.Fatalf("replies %q", acks)
	}
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("%.2f allocs per %d-offer burst, want 0", avg, burst)
	}
}

// TestOverlongLine: a line past maxLineLen gets one bad-request reply
// and the connection ends; the read buffer stops growing at the cap.
func TestOverlongLine(t *testing.T) {
	client, done := pipeDaemon(t, hybridsched.ServiceConfig{Ports: 8, Algorithm: "islip", SlotBits: 1000})
	go client.Write(bytes.Repeat([]byte{'x'}, maxLineLen+1)) // ends when the daemon closes its side
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(client)
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil || resp.OK || !strings.HasPrefix(resp.Error, "bad request: ") {
		t.Fatalf("reply %q (%v)", line, err)
	}
	if _, err := r.ReadBytes('\n'); err != io.EOF {
		t.Fatalf("after the reply: %v, want EOF", err)
	}
	<-done

	// A line of exactly the cap's worth of JSON is still served.
	client, _ = pipeDaemon(t, hybridsched.ServiceConfig{Ports: 8, Algorithm: "islip", SlotBits: 1000})
	long := append([]byte(`{"op":"stats"}`), bytes.Repeat([]byte{' '}, maxLineLen-len(`{"op":"stats"}`)-1)...)
	go client.Write(append(long, '\n'))
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err = bufio.NewReader(client).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &resp); err != nil || !resp.OK {
		t.Fatalf("reply %q (%v)", line, err)
	}
}

// TestServeConnEndsOnFailedWrite: a client that sends a burst and goes
// away without reading must not leave serveConn running.
func TestServeConnEndsOnFailedWrite(t *testing.T) {
	client, done := pipeDaemon(t, hybridsched.ServiceConfig{Ports: 64, Algorithm: "islip", SlotBits: 1000})
	if _, err := client.Write(offerBurst(16)); err != nil {
		t.Fatal(err)
	}
	client.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("serveConn still running after its writes started failing")
	}
}

var wireRoundSink []byte

// BenchmarkWireRound is the ledger's wire entry (BENCH_wire.json): one
// op is the benchmark workload's round — 512 offers and a step
// pipelined in one write over loopback TCP, 513 replies read back. The
// client is preallocated, so allocs/op is the daemon's: the step's
// caller-owned frame, nothing per offer.
func BenchmarkWireRound(b *testing.B) {
	d, err := newDaemon(hybridsched.ServiceConfig{Ports: 64, Algorithm: "islip", SlotBits: 12000})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		d.serveListener(ln)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		conn.Close()
		ln.Close()
		<-served
	}()

	const offers = 512
	lines := append(offerBurst(offers), `{"op":"step"}`+"\n"...)
	r := bufio.NewReaderSize(conn, connBufSize)
	round := func() {
		if _, err := conn.Write(lines); err != nil {
			b.Fatal(err)
		}
		for i := 0; i <= offers; i++ {
			if wireRoundSink, err = r.ReadSlice('\n'); err != nil {
				b.Fatal(err)
			}
		}
	}
	round()
	if !bytes.HasPrefix(wireRoundSink, []byte(`{"ok":true,"frames":[{"epoch":1,`)) {
		b.Fatalf("step reply %q", wireRoundSink)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
