package live

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"btrace/internal/tracer"
)

// Server-Sent Events framing for GET /live. Three event types flow on
// the stream:
//
//	event: trace    data: one JSON-encoded trace event (Frame)
//	event: missed   data: events lost to ring overwrite since last frame
//	event: evicted  data: total missed count; the stream ends after it
//
// plus ": keepalive" comment lines during idle stretches. The codec
// lives here (not in the handler) so btrace-vulture's client and the
// fuzzers exercise the exact bytes the server emits. Frame and
// DecodeFrame are the client side and use encoding/json; the server
// side is the Append functions, which do not.

// SSE event names on the /live stream.
const (
	EventTrace   = "trace"
	EventMissed  = "missed"
	EventEvicted = "evicted"
)

// Frame is the JSON shape of one trace event on the wire. Payload
// rides as standard-library base64 ([]byte JSON encoding).
type Frame struct {
	Stamp    uint64 `json:"stamp"`
	TS       uint64 `json:"ts"`
	Core     uint8  `json:"core"`
	TID      uint32 `json:"tid"`
	Category uint8  `json:"category"`
	Level    uint8  `json:"level"`
	Payload  []byte `json:"payload,omitempty"`
}

// AppendFrame appends e as one SSE trace event to dst: the bytes
// json.Marshal(Frame{...}) framed as "event: trace" would give, field
// order, omitempty and base64 included, written with strconv and
// base64's appenders so a frame costs no allocation and no reflection
// (FuzzFrameRoundTrip holds it to the encoding/json reference).
func AppendFrame(dst []byte, e *tracer.Entry) []byte {
	dst = append(dst, "event: "+EventTrace+"\ndata: {\"stamp\":"...)
	dst = strconv.AppendUint(dst, e.Stamp, 10)
	dst = append(dst, `,"ts":`...)
	dst = strconv.AppendUint(dst, e.TS, 10)
	dst = append(dst, `,"core":`...)
	dst = strconv.AppendUint(dst, uint64(e.Core), 10)
	dst = append(dst, `,"tid":`...)
	dst = strconv.AppendUint(dst, uint64(e.TID), 10)
	dst = append(dst, `,"category":`...)
	dst = strconv.AppendUint(dst, uint64(e.Category), 10)
	dst = append(dst, `,"level":`...)
	dst = strconv.AppendUint(dst, uint64(e.Level), 10)
	if len(e.Payload) > 0 {
		dst = append(dst, `,"payload":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, e.Payload)
		dst = append(dst, '"')
	}
	return append(dst, "}\n\n"...)
}

// AppendMissed appends a missed event carrying the count of events lost
// to ring overwrite since the previous frame.
func AppendMissed(dst []byte, n uint64) []byte {
	return appendCount(dst, "event: "+EventMissed+"\ndata: ", n)
}

// AppendEvicted appends the stream-ending evicted event with the
// subscriber's total missed count.
func AppendEvicted(dst []byte, totalMissed uint64) []byte {
	return appendCount(dst, "event: "+EventEvicted+"\ndata: ", totalMissed)
}

func appendCount(dst []byte, head string, n uint64) []byte {
	return append(strconv.AppendUint(append(dst, head...), n, 10), "\n\n"...)
}

// Keepalive is the comment frame an idle stream carries.
const Keepalive = ": keepalive\n\n"

// EncodeFrame writes the AppendFrame bytes for e. The Encode forms are
// for callers with a writer and no buffer of their own; the /live
// handler appends a whole drain into one.
func EncodeFrame(w io.Writer, e *tracer.Entry) error {
	_, err := w.Write(AppendFrame(nil, e))
	return err
}

// DecodeFrame parses the data payload of one trace event back into an
// Entry. A zero-length payload decodes as nil, matching the encoder's
// omitempty.
func DecodeFrame(data []byte) (tracer.Entry, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f Frame
	if err := dec.Decode(&f); err != nil {
		return tracer.Entry{}, fmt.Errorf("live: bad trace frame: %w", err)
	}
	e := tracer.Entry{
		Stamp:    f.Stamp,
		TS:       f.TS,
		Core:     f.Core,
		TID:      f.TID,
		Category: f.Category,
		Level:    f.Level,
	}
	if len(f.Payload) > 0 {
		e.Payload = f.Payload
	}
	return e, nil
}

// EncodeMissed writes the AppendMissed frame.
func EncodeMissed(w io.Writer, n uint64) error {
	_, err := w.Write(AppendMissed(nil, n))
	return err
}

// EncodeEvicted writes the AppendEvicted frame.
func EncodeEvicted(w io.Writer, totalMissed uint64) error {
	_, err := w.Write(AppendEvicted(nil, totalMissed))
	return err
}

// ParseCount parses the data payload of a missed/evicted event.
func ParseCount(data []byte) (uint64, error) {
	n, err := strconv.ParseUint(string(bytes.TrimSpace(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("live: bad count %q", data)
	}
	return n, nil
}

// maxSSELine bounds one SSE line on the client side: a trace frame is
// a header's worth of JSON plus a base64 payload (≤ 64 KiB raw), so
// 256 KiB is generous and still refuses unbounded lines.
const maxSSELine = 256 << 10

// StreamReader is a minimal SSE client for the /live stream: it
// yields (event, data) pairs and ignores comment/keepalive lines.
type StreamReader struct {
	r *bufio.Reader
}

// NewStreamReader wraps r (typically the /live response body).
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: bufio.NewReaderSize(r, 16<<10)}
}

// Next returns the next event on the stream. io.EOF reports a cleanly
// ended stream.
func (sr *StreamReader) Next() (event string, data []byte, err error) {
	event = ""
	data = nil
	for {
		line, err := sr.readLine()
		if err != nil {
			if err == io.EOF && (event != "" || data != nil) {
				// Stream cut mid-event: surface it as unexpected.
				return "", nil, io.ErrUnexpectedEOF
			}
			return "", nil, err
		}
		switch {
		case len(line) == 0:
			// Blank line dispatches the accumulated event.
			if event == "" && data == nil {
				continue // stray separator
			}
			return event, data, nil
		case line[0] == ':':
			continue // comment / keepalive
		case bytes.HasPrefix(line, []byte("event:")):
			event = string(bytes.TrimSpace(line[len("event:"):]))
		case bytes.HasPrefix(line, []byte("data:")):
			chunk := bytes.TrimPrefix(line[len("data:"):], []byte(" "))
			if data == nil {
				data = append([]byte(nil), chunk...)
			} else {
				// Multi-line data concatenates with newlines per the SSE
				// spec; our encoder never emits it but a client must not
				// corrupt it.
				data = append(append(data, '\n'), chunk...)
			}
		default:
			// Unknown field: ignored, per the SSE spec.
		}
	}
}

// readLine reads one \n-terminated line, stripping a trailing \r, and
// refusing lines beyond maxSSELine.
func (sr *StreamReader) readLine() ([]byte, error) {
	var buf []byte
	for {
		chunk, err := sr.r.ReadSlice('\n')
		buf = append(buf, chunk...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(buf) > maxSSELine {
				return nil, fmt.Errorf("live: SSE line exceeds %d bytes", maxSSELine)
			}
			continue
		}
		if err == io.EOF && len(buf) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	buf = bytes.TrimSuffix(buf, []byte("\n"))
	buf = bytes.TrimSuffix(buf, []byte("\r"))
	return buf, nil
}
