package export

import (
	"encoding/json"
	"fmt"
	"io"

	"btrace/internal/tracer"
	"btrace/internal/workload"
)

// Encoder serializes entries in the repository's wire format directly to
// an io.Writer through one reusable record buffer, so dumping a readout
// — or shipping a live cursor — allocates O(1) regardless of trace size.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w}
}

// Encode writes one entry.
func (enc *Encoder) Encode(e *tracer.Entry) error {
	size := e.WireSize()
	if cap(enc.buf) < size {
		enc.buf = make([]byte, size)
	}
	n, err := tracer.EncodeEvent(enc.buf[:size], e)
	if err != nil {
		return err
	}
	_, err = enc.w.Write(enc.buf[:n])
	return err
}

// EncodeBatch writes every entry of es in order.
func (enc *Encoder) EncodeBatch(es []tracer.Entry) error {
	for i := range es {
		if err := enc.Encode(&es[i]); err != nil {
			return err
		}
	}
	return nil
}

// FromCursor drains c through batch (which sizes each read and must be
// non-empty) into the output, returning the number of events written and
// the total missed count the cursor reported. No intermediate full-trace
// slice is ever built.
func (enc *Encoder) FromCursor(c tracer.Cursor, batch []tracer.Entry) (events int, missed uint64, err error) {
	for {
		n, m, err := c.Next(batch)
		missed += m
		if err != nil {
			return events, missed, err
		}
		if n == 0 {
			return events, missed, nil
		}
		if err := enc.EncodeBatch(batch[:n]); err != nil {
			return events, missed, err
		}
		events += n
	}
}

// maxRecordSize bounds how large a single streamed record may claim to
// be: the biggest legitimate record is an event with MaxPayload bytes.
// Dumps only contain event records, and the cap keeps a corrupt or
// adversarial size word from driving an unbounded allocation.
var maxRecordSize = tracer.EventWireSize(tracer.MaxPayload)

// Decoder reads wire-format records from an io.Reader incrementally: one
// record in memory at a time, through a reusable buffer. It is the
// streaming counterpart of tracer.DecodeAll for serialized readouts too
// large (or too remote) to slurp into one byte slice.
type Decoder struct {
	r   io.Reader
	buf []byte
	// events and skipped count decoded event records and tolerated
	// structural records, for diagnostics.
	events  int
	skipped int
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, 512)}
}

// Next decodes the next event record into *e, skipping structural
// records (dummy, block header, skip marker). It returns io.EOF at a
// clean end of stream, io.ErrUnexpectedEOF when the stream ends inside a
// record, and tracer.ErrCorrupt-wrapped errors for malformed records.
// The entry's Payload borrows the decoder's buffer: it is valid only
// until the next call to Next.
func (d *Decoder) Next(e *tracer.Entry) error {
	for {
		if _, err := io.ReadFull(d.r, d.buf[:tracer.Align]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return io.ErrUnexpectedEOF
			}
			return err // io.EOF: clean end between records
		}
		_, size, err := tracer.PeekRecord(d.buf[:tracer.Align])
		if err != nil {
			return err
		}
		if size > maxRecordSize {
			return fmt.Errorf("%w: record size %d exceeds maximum %d", tracer.ErrCorrupt, size, maxRecordSize)
		}
		if cap(d.buf) < size {
			grown := make([]byte, size)
			copy(grown, d.buf[:tracer.Align])
			d.buf = grown
		}
		if _, err := io.ReadFull(d.r, d.buf[tracer.Align:size]); err != nil {
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		rec, err := tracer.DecodeRecord(d.buf[:size])
		if err != nil {
			return err
		}
		if rec.Kind != tracer.KindEvent {
			d.skipped++
			continue
		}
		d.events++
		*e = rec.Event
		return nil
	}
}

// Counts reports how many event records were decoded and how many
// structural records were skipped so far.
func (d *Decoder) Counts() (events, skipped int) {
	return d.events, d.skipped
}

// DecodeInto appends every remaining event of d to dst (deep copies, the
// caller owns them) and returns the result. It is the bridge back to the
// slice world for consumers that genuinely need the whole readout.
func (d *Decoder) DecodeInto(dst []tracer.Entry) ([]tracer.Entry, error) {
	var e tracer.Entry
	for {
		err := d.Next(&e)
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		dst = tracer.CloneEntries(dst, []tracer.Entry{e})
	}
}

// NeedsPayload reports whether the named stream format — "text", "csv"
// or "chrome", the names of TextCursor, CSVCursor and ChromeTraceCursor
// — prints payload bytes. CSV and Chrome print a payload's size alone,
// so a reader feeding them may ask its source for lengths only
// (store.Query.LengthsOnly) and hand over tracer.LengthOnly payloads.
// ok is false for a name that is none of the three.
func NeedsPayload(format string) (needs, ok bool) {
	switch format {
	case "text":
		return true, true
	case "csv", "chrome":
		return false, true
	}
	return false, false
}

// TextCursor streams c through batch to w in the Text format, never
// materializing the full trace. It returns the event count and the total
// missed count the cursor reported.
func TextCursor(w io.Writer, c tracer.Cursor, batch []tracer.Entry) (events int, missed uint64, err error) {
	return drainTo(c, batch, func(es []tracer.Entry) error { return Text(w, es) })
}

// CSVCursor streams c through batch to w as CSV with one header row.
func CSVCursor(w io.Writer, c tracer.Cursor, batch []tracer.Entry) (events int, missed uint64, err error) {
	cw, err := newCSVWriter(w)
	defer cw.release()
	if err != nil {
		return 0, 0, err
	}
	events, missed, err = drainTo(c, batch, cw.rows)
	if err != nil {
		return events, missed, err
	}
	return events, missed, cw.bw.Flush()
}

// ChromeTraceCursor streams c through batch to w as Chrome trace-event
// JSON: events render as instant events ("ph":"i") named by their
// category, grouped by core (pid) and thread (tid). The traceEvents
// array is emitted incrementally, one event at a time, and the metadata
// object (including the final event and missed counts) is appended once
// the cursor is exhausted.
func ChromeTraceCursor(w io.Writer, c tracer.Cursor, batch []tracer.Entry) (events int, missed uint64, err error) {
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return 0, 0, err
	}
	written := 0 // events emitted so far, across batches
	events, missed, err = drainTo(c, batch, func(es []tracer.Entry) error {
		for i := range es {
			e := &es[i]
			raw, err := json.Marshal(chromeEvent{
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
			if err != nil {
				return err
			}
			if written > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := w.Write(raw); err != nil {
				return err
			}
			written++
		}
		return nil
	})
	if err != nil {
		return events, missed, err
	}
	_, err = fmt.Fprintf(w, `],"metadata":{"tracer":"btrace","event-count":%d,"missed":%d}}%s`,
		events, missed, "\n")
	return events, missed, err
}

// drainTo reads c to exhaustion through batch, handing each filled batch
// to sink, and accumulates the counts. The batch contents are only valid
// inside the sink call, per the cursor ownership contract.
func drainTo(c tracer.Cursor, batch []tracer.Entry, sink func([]tracer.Entry) error) (events int, missed uint64, err error) {
	if len(batch) == 0 {
		return 0, 0, fmt.Errorf("export: empty batch")
	}
	for {
		n, m, err := c.Next(batch)
		missed += m
		if err != nil {
			return events, missed, err
		}
		if n == 0 {
			return events, missed, nil
		}
		if err := sink(batch[:n]); err != nil {
			return events, missed, err
		}
		events += n
	}
}
