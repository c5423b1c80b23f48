// Package export converts trace readouts into interchange formats: the
// Chrome trace-event JSON consumed by chrome://tracing and Perfetto (the
// trace viewers the paper's ecosystem uses [17, 37, 39]), CSV for ad-hoc
// analysis, and a human-readable text rendering modeled on the kernel's
// trace output.
package export

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"unsafe"

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

// ChromeTrace writes es as Chrome trace-event JSON: ChromeTraceCursor
// over the slice, so a drained readout and a streamed one are the same
// document.
func ChromeTrace(w io.Writer, es []tracer.Entry) error {
	_, _, err := ChromeTraceCursor(w, &sliceCursor{es: es}, make([]tracer.Entry, 256))
	return err
}

// sliceCursor hands out a slice's entries, in order, and then its end.
type sliceCursor struct{ es []tracer.Entry }

func (c *sliceCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	n := copy(batch, c.es)
	c.es = c.es[n:]
	return n, 0, nil
}

func (c *sliceCursor) Close() error { return nil }

// csvHeader is the column set shared by CSV and CSVCursor.
const csvHeader = "stamp,ts_ns,core,tid,category,level,payload_bytes\n"

// csvWriter renders entries as CSV rows. Every field is a decimal or an
// atrace category name, none of which can need quoting, so rows are
// written straight into the bufio.Writer's own free space instead of
// going through encoding/csv's per-field strings and quoting checks, or
// a row buffer that is then copied; the bytes are what encoding/csv
// would have written (the tests hold it to that, header included).
type csvWriter struct {
	bw *bufio.Writer
	csvRow
}

// csvRow is the row kernel. A row is written at offsets from its start,
// after one check by the caller that a row fits, by whole-word stores
// that check no bound of their own (store8, store64) and may run past
// the field, to be overwritten by what follows: a number below 10^8 as
// one 8-byte word of digits, two quads entries shifted past their
// leading zeros; core and level as a precomputed cell, comma included,
// and the category as a longer one. stamp, ts and tid keep the digits
// of their last value above 10^8, which a stamp-ordered export's stamps
// and times rarely leave.
type csvRow struct {
	stamp, ts, tid csvColumn
}

// maxCSVRow bounds the bytes one row's stores reach past its start: the
// widest row's text — two uint64 and a uint32 at their widest and their
// commas, the core and level cells, the longest category cell, a
// five-digit payload length and the newline — and the widest store past
// the end of its text, a category cell's. It is far below a
// bufio.Writer's buffer, so a flushed writer always has room for a row.
const maxCSVRow = 2*(20+1) + 10 + 1 + 2*byteCellBytes + catCellBytes + 5 + 1 + catCellBytes

// csvBufferBytes is the CSV writer's buffer. A large export reaches w in
// 64 KiB writes — over HTTP one chunk each, where bufio's default 4 KiB
// made sixteen.
const csvBufferBytes = 64 << 10

// csvWriters pools the writers and their buffers: a one-row export (a
// freshness probe, hundreds a second) must not allocate and zero 64 KiB.
var csvWriters = sync.Pool{New: func() any {
	return &csvWriter{bw: bufio.NewWriterSize(nil, csvBufferBytes)}
}}

// newCSVWriter starts a CSV document on w: it writes the header row.
// The writer comes from the pool; release returns it.
func newCSVWriter(w io.Writer) (*csvWriter, error) {
	cw := csvWriters.Get().(*csvWriter)
	cw.bw.Reset(w)
	_, err := cw.bw.WriteString(csvHeader)
	return cw, err
}

// release drops whatever is unflushed, and w, and pools the writer.
func (cw *csvWriter) release() {
	cw.bw.Reset(nil)
	csvWriters.Put(cw)
}

// rows writes one row per entry, formatted in place in the writer's
// free space; the rows that fit are committed with one Write, which
// finds them where it would have copied them to.
func (cw *csvWriter) rows(es []tracer.Entry) error {
	bw := cw.bw
	b := bw.AvailableBuffer()
	b = b[:cap(b)]
	p := 0
	for i := range es {
		if len(b)-p < maxCSVRow {
			if _, err := bw.Write(b[:p]); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			b = bw.AvailableBuffer()
			b, p = b[:cap(b)], 0
		}
		p += cw.put(unsafe.Add(unsafe.Pointer(unsafe.SliceData(b)), p), &es[i])
	}
	_, err := bw.Write(b[:p])
	return err
}

// write writes the rows of es, or text, rows a cursor handed over
// rendered already (csvRenderer's). Text larger than the free buffer
// goes to w as it is, after what is buffered, and is not copied.
func (cw *csvWriter) write(es []tracer.Entry, p []byte) error {
	if p == nil {
		return cw.rows(es)
	}
	if len(p) > cw.bw.Available() {
		if err := cw.bw.Flush(); err != nil {
			return err
		}
	}
	_, err := cw.bw.Write(p) // an empty buffer hands a larger p straight to w
	return err
}

// put writes e's row at r, where maxCSVRow bytes are free, and returns
// its length.
func (k *csvRow) put(r unsafe.Pointer, e *tracer.Entry) int {
	n := k.stamp.put(r, 0, e.Stamp)
	store8(r, n, ',')
	n = k.ts.put(r, n+1, e.TS)
	store8(r, n, ',')
	cell := &byteCells[e.Core]
	*(*[byteCellBytes]byte)(unsafe.Add(r, n+1)) = cell.b
	n += 1 + int(cell.n)
	if v := uint64(e.TID); v < 1e8 {
		n = putDecimal8(r, n, v)
	} else {
		n = k.tid.put(r, n, v)
	}
	cat := &catCells[e.Category]
	*(*[catCellBytes]byte)(unsafe.Add(r, n+1)) = cat.b
	store8(r, n, ',')
	n += 1 + int(cat.n)
	cell = &byteCells[e.Level]
	*(*[byteCellBytes]byte)(unsafe.Add(r, n)) = cell.b
	n = putDecimal8(r, n+int(cell.n), uint64(len(e.Payload)))
	store8(r, n, '\n')
	return n + 1
}

// csvRenderer is the row kernel as a tracer.Renderer: what a store
// renders a set of rows with once, and CSVCursor then writes as it is.
type csvRenderer struct{}

func (csvRenderer) Format() string { return "csv" }

func (csvRenderer) AppendRows(dst []byte, ends []uint32, es []tracer.Entry) ([]byte, []uint32) {
	var k csvRow
	for i := range es {
		if cap(dst)-len(dst) < maxCSVRow {
			dst = slices.Grow(dst, maxCSVRow)
		}
		p := len(dst)
		dst = dst[:p+k.put(unsafe.Add(unsafe.Pointer(unsafe.SliceData(dst)), p), &es[i])]
		ends = append(ends, uint32(len(dst)))
	}
	return dst, ends
}

// The row kernel's stores: at offset n from the row's start r, checking
// no bound — the row's one room check covers every store it makes.
// store64 writes w's bytes in little-endian order, the digits' order in
// quads, on every platform.
func store8(r unsafe.Pointer, n int, c byte) { *(*byte)(unsafe.Add(r, n)) = c }

func store64(r unsafe.Pointer, n int, w uint64) {
	binary.LittleEndian.PutUint64((*[8]byte)(unsafe.Add(r, n))[:], w)
}

// csvColumn formats one numeric column, keeping hi's digits: the value
// over 10^8 of the last value at or above 10^8 (0, which no such value
// has, before the first).
type csvColumn struct {
	hi     uint64
	n      int
	digits [16]byte // hi's n digits: at most 12, as 2^64 < 10^20
}

// put writes v at offset n of row r and returns the offset past it.
func (c *csvColumn) put(r unsafe.Pointer, n int, v uint64) int {
	if v < 1e8 {
		return putDecimal8(r, n, v)
	}
	hi, lo := v/1e8, v%1e8
	if hi != c.hi {
		c.hi, c.n = hi, len(strconv.AppendUint(c.digits[:0], hi, 10))
	}
	*(*[16]byte)(unsafe.Add(r, n)) = c.digits
	n += c.n
	store64(r, n, uint64(quads[lo/1e4])|uint64(quads[lo%1e4])<<32)
	return n + 8
}

// putDecimal8 writes v < 10^8 at offset n of row r and returns the
// offset past it: its eight digits as one word, shifted down past the
// leading zeros, which the zero bits of the word less "00000000" count.
// Up to seven bytes past the digits are overwritten.
func putDecimal8(r unsafe.Pointer, n int, v uint64) int {
	w := uint64(quads[v/1e4]) | uint64(quads[v%1e4])<<32
	z := min(bits.TrailingZeros64(w^0x3030303030303030)&^7, 56) // 0 has one digit
	store64(r, n, w>>z)
	return n + 8 - z>>3
}

// quads is "0000" … "9999", a number's four digits to a word, the first
// in the lowest byte: the byte order binary.LittleEndian writes them in.
var quads = func() (t [10000]uint32) {
	for i := range t {
		t[i] = uint32('0'+i/1000) | uint32('0'+i/100%10)<<8 | uint32('0'+i/10%10)<<16 | uint32('0'+i%10)<<24
	}
	return t
}()

// byteCellBytes holds a byte's decimal and its comma.
const byteCellBytes = 4

// byteCells is every byte value's CSV cell, for core and level: its
// decimal and the comma after it, n bytes of b.
var byteCells = func() (t [256]struct {
	b [byteCellBytes]byte
	n uint8
}) {
	for v := range t {
		t[v].n = uint8(copy(t[v].b[:], strconv.Itoa(v)+","))
	}
	return t
}()

// catCellBytes holds the longest category name and its comma.
const catCellBytes = 24

// catCells is every category value's CSV cell: its name and the comma
// after it, n bytes of b.
var catCells = func() (t [256]struct {
	b [catCellBytes]byte
	n uint8
}) {
	for c := range t {
		cell := workload.Category(c).Name() + ","
		if len(cell) > catCellBytes {
			panic("export: category name " + cell + " overruns its CSV cell")
		}
		t[c].n = uint8(copy(t[c].b[:], cell))
	}
	return t
}()

// CSV writes es as comma-separated rows with a header.
func CSV(w io.Writer, es []tracer.Entry) error {
	cw, err := newCSVWriter(w)
	defer cw.release()
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
