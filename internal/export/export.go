// Package export converts trace readouts into interchange formats: the
// Chrome trace-event JSON consumed by chrome://tracing and Perfetto (the
// trace viewers the paper's ecosystem uses [17, 37, 39]), CSV for ad-hoc
// analysis, and a human-readable text rendering modeled on the kernel's
// trace output.
package export

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"btrace/internal/tracer"
	"btrace/internal/workload"
)

// chromeEvent is one entry in the Chrome trace-event "traceEvents" array.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	PID  int            `json:"pid"` // core, so the viewer groups by core
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level Chrome trace JSON object.
type chromeFile struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

// ChromeTrace writes es as Chrome trace-event JSON. Events render as
// instant events ("ph":"i") named by their category, grouped by core
// (pid) and thread (tid).
func ChromeTrace(w io.Writer, es []tracer.Entry) error {
	file := chromeFile{
		TraceEvents: make([]chromeEvent, 0, len(es)),
		Metadata: map[string]any{
			"tracer":      "btrace",
			"event-count": len(es),
		},
	}
	for i := range es {
		e := &es[i]
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: workload.Category(e.Category).Name(),
			Ph:   "i",
			TS:   float64(e.TS) / 1e3,
			PID:  int(e.Core),
			TID:  int(e.TID),
			Args: map[string]any{
				"stamp": e.Stamp,
				"level": e.Level,
				"bytes": e.WireSize(),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// csvHeader is the column set shared by CSV and CSVCursor.
const csvHeader = "stamp,ts_ns,core,tid,category,level,payload_bytes\n"

// csvWriter renders entries as CSV rows. Every field is a decimal or an
// atrace category name, none of which can need quoting, so a row is
// appended digit by digit into one reused buffer instead of going
// through encoding/csv's per-field strings and quoting checks; the
// bytes are what encoding/csv would have written (the tests hold it to
// that, header included).
type csvWriter struct {
	bw  *bufio.Writer
	row []byte
}

// newCSVWriter starts a CSV document on w: it writes the header row.
func newCSVWriter(w io.Writer) (*csvWriter, error) {
	cw := &csvWriter{bw: bufio.NewWriter(w)}
	_, err := cw.bw.WriteString(csvHeader)
	return cw, err
}

// rows writes one row per entry.
func (cw *csvWriter) rows(es []tracer.Entry) error {
	for i := range es {
		e := &es[i]
		b := strconv.AppendUint(cw.row[:0], e.Stamp, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, e.TS, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(e.Core), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(e.TID), 10)
		b = append(b, ',')
		b = append(b, workload.Category(e.Category).Name()...)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(e.Level), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(len(e.Payload)), 10)
		b = append(b, '\n')
		cw.row = b
		if _, err := cw.bw.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes es as comma-separated rows with a header.
func CSV(w io.Writer, es []tracer.Entry) error {
	cw, err := newCSVWriter(w)
	if err != nil {
		return err
	}
	if err := cw.rows(es); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// Text writes es in a human-readable, ftrace-output-like form:
//
//	[core] tid=NNN  12.345678s  category  level=N  stamp=NNN  payload...
func Text(w io.Writer, es []tracer.Entry) error {
	for i := range es {
		e := &es[i]
		payload := ""
		if len(e.Payload) > 0 {
			const maxShown = 32
			p := e.Payload
			trunc := ""
			if len(p) > maxShown {
				p, trunc = p[:maxShown], "..."
			}
			if printable(p) {
				payload = fmt.Sprintf("  %q%s", p, trunc)
			} else {
				payload = fmt.Sprintf("  %x%s", p, trunc)
			}
		}
		if _, err := fmt.Fprintf(w, "[%03d] tid=%-7d %12.6fs  %-18s level=%d stamp=%d%s\n",
			e.Core, e.TID, float64(e.TS)/1e9, workload.Category(e.Category).Name(),
			e.Level, e.Stamp, payload); err != nil {
			return err
		}
	}
	return nil
}

func printable(p []byte) bool {
	for _, b := range p {
		if b < 0x20 || b > 0x7e {
			return false
		}
	}
	return true
}
