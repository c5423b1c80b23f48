package export

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"btrace/internal/tracer"
	"btrace/internal/workload"
)

func sample() []tracer.Entry {
	return []tracer.Entry{
		{Stamp: 1, TS: 1_500_000, Core: 0, TID: 42, Category: 11, Level: 2, Payload: []byte("hello")},
		{Stamp: 2, TS: 2_500_000, Core: 11, TID: 43, Category: 17, Level: 3, Payload: []byte{0x00, 0xFF}},
		{Stamp: 3, TS: 3_500_000, Core: 5, TID: 44, Category: 2, Level: 1},
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("%d events", len(parsed.TraceEvents))
	}
	ev := parsed.TraceEvents[0]
	if ev.Name != "sched" || ev.Ph != "i" || ev.TS != 1500 || ev.PID != 0 || ev.TID != 42 {
		t.Fatalf("event 0: %+v", ev)
	}
	if ev.Args["stamp"].(float64) != 1 {
		t.Fatalf("args: %v", ev.Args)
	}
	if parsed.Metadata["tracer"] != "btrace" {
		t.Fatalf("metadata: %v", parsed.Metadata)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid JSON for empty input")
	}
}

// csvReference renders es the way the exporter did before it stopped
// going through encoding/csv: the bytes CSV and CSVCursor are held to.
func csvReference(t testing.TB, es []tracer.Entry) string {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	recs := [][]string{{"stamp", "ts_ns", "core", "tid", "category", "level", "payload_bytes"}}
	for _, e := range es {
		recs = append(recs, []string{
			strconv.FormatUint(e.Stamp, 10),
			strconv.FormatUint(e.TS, 10),
			strconv.Itoa(int(e.Core)),
			strconv.FormatUint(uint64(e.TID), 10),
			workload.Category(e.Category).Name(),
			strconv.Itoa(int(e.Level)),
			strconv.Itoa(len(e.Payload)),
		})
	}
	if err := cw.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := CSV(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	// Byte-identical to encoding/csv, for every category name there is
	// (none needs quoting) and the "unknown" ones past the table, at the
	// extremes of every numeric field.
	var all []tracer.Entry
	for cat := 0; cat < 256; cat++ {
		all = append(all, tracer.Entry{Stamp: uint64(cat), Category: uint8(cat)})
	}
	all = append(all, tracer.Entry{
		Stamp: ^uint64(0), TS: ^uint64(0), Core: 255, TID: ^uint32(0), Category: 255, Level: 255,
		Payload: make([]byte, tracer.MaxPayload),
	})
	for _, es := range [][]tracer.Entry{sample(), all, nil} {
		var got bytes.Buffer
		if err := CSV(&got, es); err != nil {
			t.Fatal(err)
		}
		if want := csvReference(t, es); got.String() != want {
			t.Fatalf("CSV differs from encoding/csv:\n%s\nvs\n%s", got.String(), want)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[0] != "stamp,ts_ns,core,tid,category,level,payload_bytes" {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,1500000,0,42,sched,2,5") {
		t.Fatalf("row 1: %q", lines[1])
	}
	// Category with a comma in its name must be quoted correctly.
	if !strings.Contains(lines[2], `energy/thermal/...`) {
		t.Fatalf("row 2: %q", lines[2])
	}
}

// boundaries returns every digit-count boundary up to max: 0 and max,
// the powers of ten and of two at most max, and their neighbours.
func boundaries(max uint64) []uint64 {
	vals := []uint64{0, max}
	add := func(p uint64) {
		for _, v := range []uint64{p - 1, p, p + 1} {
			if v <= max && v != 0 {
				vals = append(vals, v)
			}
		}
	}
	for p := uint64(1); ; p *= 10 {
		add(p)
		if p > ^uint64(0)/10 {
			break
		}
	}
	for s := 0; s < 64; s++ {
		add(uint64(1) << s)
	}
	slices.Sort(vals)
	return slices.Compact(vals)
}

// TestCSVColumns holds the row kernel to encoding/csv + strconv, column
// by column: every numeric column at every digit-count boundary of its
// type, rising and falling; stamps and times that cross a 10^8 window
// in both directions, stay inside one, and alternate between two (the
// columns' cached high digits); every category value, those past
// NumCategories ("unknown") included; and documents of every case read
// in batches of one, seven and 1000 rows, the cases in a fixed order,
// and then every case again through one writer.
func TestCSVColumns(t *testing.T) {
	base := tracer.Entry{Stamp: 1_234_567, TS: 40_000_000_000, Core: 3, TID: 4242, Category: 11, Level: 2, Payload: tracer.LengthOnly(33)}
	column := func(set func(e *tracer.Entry, v uint64), vals []uint64) []tracer.Entry {
		es := make([]tracer.Entry, 0, 2*len(vals))
		for _, v := range vals {
			e := base
			set(&e, v)
			es = append(es, e)
		}
		for i := len(vals) - 1; i >= 0; i-- {
			es = append(es, es[i])
		}
		return es
	}
	var windows []uint64
	for _, w := range []uint64{1, 2, 9, 10, 99, 400, 1e4, 123_456_789, ^uint64(0)/1e8 - 1} {
		windows = append(windows, w*1e8-1, w*1e8, w*1e8+1, w*1e8+99_999_999, (w+1)*1e8, w*1e8+5)
	}
	windows = append(windows, ^uint64(0), ^uint64(0)-1e8, ^uint64(0), 1e8, 1e8-1, 0, 1e8)
	var cats []uint64
	for c := 0; c < 256; c++ {
		cats = append(cats, uint64(c))
	}
	cases := map[string][]tracer.Entry{
		"stamp":         column(func(e *tracer.Entry, v uint64) { e.Stamp = v }, boundaries(^uint64(0))),
		"ts":            column(func(e *tracer.Entry, v uint64) { e.TS = v }, boundaries(^uint64(0))),
		"core":          column(func(e *tracer.Entry, v uint64) { e.Core = uint8(v) }, boundaries(255)),
		"tid":           column(func(e *tracer.Entry, v uint64) { e.TID = uint32(v) }, boundaries(1<<32-1)),
		"category":      column(func(e *tracer.Entry, v uint64) { e.Category = uint8(v) }, cats),
		"level":         column(func(e *tracer.Entry, v uint64) { e.Level = uint8(v) }, boundaries(255)),
		"payload":       column(func(e *tracer.Entry, v uint64) { e.Payload = tracer.LengthOnly(int(v)) }, boundaries(tracer.MaxPayload)),
		"stamp windows": column(func(e *tracer.Entry, v uint64) { e.Stamp = v }, windows),
		"ts windows":    column(func(e *tracer.Entry, v uint64) { e.TS = v }, windows),
		"tid windows":   column(func(e *tracer.Entry, v uint64) { e.TID = uint32(v) }, []uint64{1e8 - 1, 1e8, 42 * 1e8, 42*1e8 + 7, 1e8 + 3, 1<<32 - 1, 5}),
		"widest": {{
			Stamp: ^uint64(0), TS: ^uint64(0), Core: 255, TID: ^uint32(0), Category: 17, Level: 255,
			Payload: tracer.LengthOnly(tracer.MaxPayload),
		}},
	}
	// In a fixed order: writers are pooled, so which case's cached digits
	// the next one starts from must not change from run to run.
	names := slices.Sorted(maps.Keys(cases))
	for _, name := range names {
		es := cases[name]
		want := csvReference(t, es)
		for _, batch := range []int{1, 7, 1000} {
			var got bytes.Buffer
			if _, _, err := CSVCursor(&got, &sliceCursor{es: es}, make([]tracer.Entry, batch)); err != nil {
				t.Fatal(err)
			}
			if got.String() != want {
				t.Fatalf("%s, batches of %d: CSV differs from encoding/csv:\n%s\nvs\n%s", name, batch, got.String(), want)
			}
		}
	}
	// One writer through every case in turn, forwards and back: each
	// document starts from the cached digits the one before it left.
	cw := &csvWriter{bw: bufio.NewWriterSize(nil, csvBufferBytes)}
	back := slices.Clone(names)
	slices.Reverse(back)
	for _, name := range append(names, back...) {
		var got bytes.Buffer
		cw.bw.Reset(&got)
		if _, err := cw.bw.WriteString(csvHeader); err != nil {
			t.Fatal(err)
		}
		if err := cw.rows(cases[name]); err != nil {
			t.Fatal(err)
		}
		if err := cw.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := csvReference(t, cases[name]); got.String() != want {
			t.Fatalf("%s, one writer after the others: CSV differs from encoding/csv:\n%s\nvs\n%s", name, got.String(), want)
		}
	}
}

// TestCSVWriterReuse: a pooled writer keeps its columns' cached digits
// from one document to the next, so a second document of smaller values
// — and a third of the first's again — written by the same writer must
// still be encoding/csv's bytes.
func TestCSVWriterReuse(t *testing.T) {
	big := []tracer.Entry{
		{Stamp: 987_654_321_012, TS: 55_500_000_000, TID: 300_000_000, Category: 3},
		{Stamp: 987_654_321_013, TS: 55_500_000_001, TID: 300_000_001, Category: 4},
	}
	small := []tracer.Entry{
		{Stamp: 12, TS: 555_000_000, TID: 3, Category: 5},
		{Stamp: 7, TS: 100_000_001, TID: 100_000_000, Category: 6},
	}
	cw := csvWriters.Get().(*csvWriter)
	defer csvWriters.Put(cw)
	for _, es := range [][]tracer.Entry{big, small, big} {
		var got bytes.Buffer
		cw.bw.Reset(&got)
		if _, err := cw.bw.WriteString(csvHeader); err != nil {
			t.Fatal(err)
		}
		if err := cw.rows(es); err != nil {
			t.Fatal(err)
		}
		if err := cw.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := csvReference(t, es); got.String() != want {
			t.Fatalf("reused writer:\n%s\nvs\n%s", got.String(), want)
		}
	}
}

// FuzzCSVRows holds CSVCursor to encoding/csv + strconv over arbitrary
// rows. Each row is 26 bytes: the stamp, time, core, TID, category,
// level and payload length, and a byte whose low bits make the stamp
// and the time the previous row's plus a small signed step instead —
// the slowly moving columns the cached high digits are for, crossing
// their 10^8 windows up and down. The batch is 1 to 1024 rows.
func FuzzCSVRows(f *testing.F) {
	row := func(stamp, ts uint64, tid uint32, cat, mode byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, stamp)
		b = binary.LittleEndian.AppendUint64(b, ts)
		b = append(b, 7)
		b = binary.LittleEndian.AppendUint32(b, tid)
		b = append(b, cat, 2, 0x10, 0x00, mode)
		return b
	}
	f.Add(uint16(0), slices.Concat(row(1, 2, 3, 4, 0), row(^uint64(0), ^uint64(0), ^uint32(0), 255, 0)))
	f.Add(uint16(332), slices.Concat(row(99_999_990, 199_999_999, 1e8, 0, 0), row(7, 0, 5, 19, 3), row(0xFFF0, 3, 9, 20, 3), row(0x10, 0x8000, 1, 1, 3)))
	f.Fuzz(func(t *testing.T, batch uint16, data []byte) {
		var es []tracer.Entry
		var prev tracer.Entry
		for ; len(data) >= 26 && len(es) < 4096; data = data[26:] {
			e := tracer.Entry{
				Stamp: binary.LittleEndian.Uint64(data), TS: binary.LittleEndian.Uint64(data[8:]),
				Core: data[16], TID: binary.LittleEndian.Uint32(data[17:]), Category: data[21], Level: data[22],
				Payload: tracer.LengthOnly(int(binary.LittleEndian.Uint16(data[23:]))),
			}
			if mode := data[25]; mode&1 != 0 {
				e.Stamp = prev.Stamp + uint64(int64(int16(e.Stamp)))
			}
			if mode := data[25]; mode&2 != 0 {
				e.TS = prev.TS + uint64(int64(int16(e.TS)))
			}
			es, prev = append(es, e), e
		}
		var got bytes.Buffer
		if _, _, err := CSVCursor(&got, &sliceCursor{es: es}, make([]tracer.Entry, 1+int(batch)%1024)); err != nil {
			t.Fatal(err)
		}
		if want := csvReference(t, es); got.String() != want {
			t.Fatalf("CSV of %d rows differs from encoding/csv:\n%s\nvs\n%s", len(es), got.String(), want)
		}
	})
}

// TestCSVRowsAcrossFlushes: rows are formatted in the bufio.Writer's
// free space, so a document many buffers long, read in batches that do
// not line up with them, must still be the bytes encoding/csv writes.
func TestCSVRowsAcrossFlushes(t *testing.T) {
	var es []tracer.Entry
	for i := 0; i < 5000; i++ {
		es = append(es, tracer.Entry{
			Stamp: uint64(i) * 1_000_003, TS: ^uint64(0) - uint64(i), Core: uint8(i), TID: uint32(i * 7919),
			Category: uint8(i % 40), Level: uint8(i % 4), Payload: make([]byte, i%300),
		})
	}
	var got bytes.Buffer
	if _, _, err := CSVCursor(&got, &sliceCursor{es: es}, make([]tracer.Entry, 333)); err != nil {
		t.Fatal(err)
	}
	if want := csvReference(t, es); got.String() != want {
		t.Fatalf("CSV of %d rows differs from encoding/csv (%d vs %d bytes)", len(es), got.Len(), len(want))
	}
}

func TestNeedsPayload(t *testing.T) {
	for format, want := range map[string][2]bool{
		"text": {true, true}, "csv": {false, true}, "chrome": {false, true},
		"": {false, false}, "xml": {false, false}, "summary": {false, false},
	} {
		if needs, ok := NeedsPayload(format); needs != want[0] || ok != want[1] {
			t.Errorf("NeedsPayload(%q) = %v, %v, want %v", format, needs, ok, want)
		}
	}
}

func TestText(t *testing.T) {
	var buf bytes.Buffer
	if err := Text(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{`"hello"`, "00ff", "stamp=3", "[011]", "0.001500s"} {
		if !strings.Contains(out, frag) {
			t.Errorf("text output missing %q:\n%s", frag, out)
		}
	}
	// Long payloads truncate.
	long := []tracer.Entry{{Stamp: 9, Payload: bytes.Repeat([]byte("a"), 100)}}
	buf.Reset()
	if err := Text(&buf, long); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "...") {
		t.Error("no truncation marker")
	}
}

// BenchmarkExportCSV is the CSV exporter alone, cursor → io.Discard: one
// op is one event, so ns/op is the export layer's cost per event and
// allocs/op its (zero) allocations per event. The values are a served
// store's: 7-digit stamps and 11-digit times.
func BenchmarkExportCSV(b *testing.B) {
	es := make([]tracer.Entry, 1024)
	for i := range es {
		es[i] = tracer.Entry{
			Stamp: uint64(1_000_000 + i), TS: 40_000_000_000 + uint64(i)*7_629, Core: uint8(i % 8), TID: uint32(4096 + i%64),
			Category: uint8(i % int(workload.NumCategories)), Level: uint8(1 + i%3), Payload: make([]byte, 16+i%64),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	events, _, err := CSVCursor(io.Discard, &cycleCursor{es: es, left: b.N}, make([]tracer.Entry, 1024))
	if err != nil || events != b.N {
		b.Fatalf("exported %d of %d events: %v", events, b.N, err)
	}
}

// cycleCursor yields left events, cycling over es.
type cycleCursor struct {
	es   []tracer.Entry
	left int
}

func (c *cycleCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	n := copy(batch[:min(len(batch), c.left)], c.es)
	c.left -= n
	return n, 0, nil
}

func (c *cycleCursor) Close() error { return nil }
