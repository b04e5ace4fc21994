package main

// The per-message half of the connection loop: splitting the input into
// lines without reading ahead of need, decoding the common request shape
// without reflection, and append-encoding the two replies a busy
// connection is made of. Everything here runs once per request line, so
// it stays allocation-free (TestServeConnOfferAllocFree, and the
// //hybridsched:hotpath roots below under `make lint`).

import (
	"bytes"
	"errors"
	"io"
	"strconv"

	"hybridsched"
)

const (
	// connBufSize is the write buffer and the initial read buffer of one
	// connection: a pipelined burst up to this size costs one read and
	// one write.
	connBufSize = 64 << 10
	// maxLineLen bounds one request line, and with it the read buffer.
	maxLineLen = 1 << 20
)

var errLineTooLong = errors.New("request line exceeds " + strconv.Itoa(maxLineLen) + " bytes")

// ackLine is the whole reply to an accepted offer (and subscribe).
var ackLine = []byte(`{"ok":true}` + "\n")

// lineReader splits a connection's input into lines. next hands out only
// lines that are already buffered and fill is the one call that blocks,
// so the caller can flush its replies exactly when it is about to wait.
type lineReader struct {
	src     io.Reader
	buf     []byte
	r, w    int // buf[r:w] is unread input
	scanned int // buf[r:r+scanned] is known to hold no newline
}

// next returns the next complete buffered line without its newline; the
// slice is valid until fill. ok is false when no complete line is
// buffered.
//
//hybridsched:hotpath
func (lr *lineReader) next() (line []byte, ok bool) {
	from := lr.r + lr.scanned
	i := bytes.IndexByte(lr.buf[from:lr.w], '\n')
	if i < 0 {
		lr.scanned = lr.w - lr.r
		return nil, false
	}
	line = lr.buf[lr.r : from+i]
	lr.r, lr.scanned = from+i+1, 0
	return line, true
}

// fill blocks until the connection yields more input. The buffer grows
// only while one unfinished line fills it, and never past maxLineLen:
// then fill returns errLineTooLong.
func (lr *lineReader) fill() error {
	if lr.r > 0 { // slide the unfinished line to the front
		lr.w = copy(lr.buf, lr.buf[lr.r:lr.w])
		lr.r = 0
	}
	if lr.w == len(lr.buf) {
		if len(lr.buf) >= maxLineLen {
			return errLineTooLong
		}
		grown := make([]byte, min(2*len(lr.buf), maxLineLen))
		copy(grown, lr.buf)
		lr.buf = grown
	}
	n, err := lr.src.Read(lr.buf[lr.w:])
	lr.w += n
	if n > 0 {
		return nil // a read error, if any, repeats on the next call
	}
	return err
}

// rest returns the unterminated input left when the connection ended.
func (lr *lineReader) rest() []byte {
	line := lr.buf[lr.r:lr.w]
	lr.r, lr.scanned = lr.w, 0
	return line
}

// The request keys, numbered for parseRequest's seen-set; the two string
// fields come first.
const (
	fieldOp = iota
	fieldPolicy
	fieldShard
	fieldSrc
	fieldDst
	fieldBits
	fieldBuffer
)

// parseRequest decodes the shape requests actually have — one flat
// object whose keys are the seven request keys, spelled exactly and at
// most once each, with integer values of up to 18 digits and string
// values taken from the protocol's own vocabulary — without reflection
// or allocation. For every line it accepts, the result equals
// json.Unmarshal's (FuzzParseRequest). It reports ok=false for anything
// else — other keys or spellings, escapes, floats, nulls, duplicates,
// nesting, malformed input — and the caller hands the line to
// encoding/json, which stays the definition of the protocol.
//
//hybridsched:hotpath
func parseRequest(line []byte) (req request, ok bool) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return request{}, false
	}
	i = skipSpace(line, i+1)
	var seen uint
	for {
		key, j := scanString(line, i)
		if j < 0 {
			return request{}, false
		}
		i = skipSpace(line, j)
		if i == len(line) || line[i] != ':' {
			return request{}, false
		}
		i = skipSpace(line, i+1)

		var field uint
		//hybridsched:alloc-ok a switch on string(bytes) compares in place; no string is built
		switch string(key) {
		case "op":
			field = fieldOp
		case "policy":
			field = fieldPolicy
		case "shard":
			field = fieldShard
		case "src":
			field = fieldSrc
		case "dst":
			field = fieldDst
		case "bits":
			field = fieldBits
		case "buffer":
			field = fieldBuffer
		default:
			return request{}, false
		}
		if seen&(1<<field) != 0 {
			return request{}, false
		}
		seen |= 1 << field

		if field <= fieldPolicy {
			val, j := scanString(line, i)
			if j < 0 {
				return request{}, false
			}
			word, ok := intern(val)
			if !ok {
				return request{}, false
			}
			if field == fieldOp {
				req.Op = word
			} else {
				req.Policy = word
			}
			i = j
		} else {
			var num int64
			if num, i = scanInt(line, i); i < 0 || int64(int(num)) != num {
				return request{}, false
			}
			switch field {
			case fieldShard:
				req.Shard = int(num)
			case fieldSrc:
				req.Src = int(num)
			case fieldDst:
				req.Dst = int(num)
			case fieldBits:
				req.Bits = num
			case fieldBuffer:
				req.Buffer = int(num)
			}
		}

		i = skipSpace(line, i)
		if i == len(line) {
			return request{}, false
		}
		if line[i] == '}' {
			if skipSpace(line, i+1) != len(line) {
				return request{}, false
			}
			return req, true
		}
		if line[i] != ',' {
			return request{}, false
		}
		i = skipSpace(line, i+1)
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// scanString returns the bytes between the quote at b[i] and the next
// quote, and the index after it, or -1 when b[i:] does not start such a
// string. A string holding an escape comes back cut short at the
// backslash (or with it); either way it equals no protocol word, which
// is all the caller compares it with.
func scanString(b []byte, i int) (s []byte, next int) {
	if i == len(b) || b[i] != '"' {
		return nil, -1
	}
	end := i + 1
	for end < len(b) && b[end] != '"' { // protocol words are short: a loop beats a call
		end++
	}
	if end == len(b) {
		return nil, -1
	}
	return b[i+1 : end], end + 1
}

// intern maps a string value to the equal protocol constant, so decoding
// builds no string. Values outside the vocabulary are errors the slow
// path words.
func intern(b []byte) (string, bool) {
	//hybridsched:alloc-ok a switch on string(bytes) compares in place; no string is built
	switch string(b) {
	case "":
		return "", true
	case "offer":
		return "offer", true
	case "step":
		return "step", true
	case "stats":
		return "stats", true
	case "status":
		return "status", true
	case "snapshot":
		return "snapshot", true
	case "subscribe":
		return "subscribe", true
	case "oldest":
		return "oldest", true
	case "newest":
		return "newest", true
	}
	return "", false
}

// scanInt parses a JSON integer of at most 18 digits (so it cannot
// overflow) at b[i] and returns it with the index after it, or -1.
// What follows the digits is the caller's to judge: a fraction or an
// exponent is neither ',' nor '}'.
func scanInt(b []byte, i int) (v int64, next int) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	digits := i - start
	if digits == 0 || digits > 18 || (digits > 1 && b[start] == '0') {
		return 0, -1
	}
	if neg {
		v = -v
	}
	return v, i
}

// appendStepReply appends the reply line to a successful step — what
// json.Encoder writes for response{OK: true, Frames: ...}, byte for byte
// (TestFrameEncoderMatchesJSON).
//
//hybridsched:hotpath
func appendStepReply(dst []byte, frames []hybridsched.ServiceFrame) []byte {
	dst = append(dst, `{"ok":true`...)
	if len(frames) > 0 { // "frames" is omitempty
		dst = append(dst, `,"frames":[`...)
		for i, f := range frames {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFrame(dst, f)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, "}\n"...)
	return dst
}

// appendFrame appends f as json.Marshal(toFrameJSON(f)) would write it.
func appendFrame(dst []byte, f hybridsched.ServiceFrame) []byte {
	dst = append(dst, `{"epoch":`...)
	dst = strconv.AppendUint(dst, f.Epoch, 10)
	dst = append(dst, `,"shard":`...)
	dst = strconv.AppendInt(dst, int64(f.Shard), 10)
	dst = append(dst, `,"match":`...)
	if f.Match == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, out := range f.Match {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(out), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"pairs":`...)
	dst = strconv.AppendInt(dst, int64(f.Pairs), 10)
	dst = append(dst, `,"served_bits":`...)
	dst = strconv.AppendInt(dst, f.ServedBits, 10)
	dst = append(dst, `,"backlog_bits":`...)
	dst = strconv.AppendInt(dst, f.BacklogBits, 10)
	dst = append(dst, '}')
	return dst
}
