package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
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

// TestAppendDecimal holds the in-place decimal append to strconv at
// every digit-count boundary: powers of ten and of two, and their
// neighbours.
func TestAppendDecimal(t *testing.T) {
	vals := []uint64{0, ^uint64(0)}
	for p := uint64(1); ; p *= 10 {
		vals = append(vals, p-1, p, p+1)
		if p > ^uint64(0)/10 {
			break
		}
	}
	for s := 0; s < 64; s++ {
		vals = append(vals, uint64(1)<<s-1, uint64(1)<<s, uint64(1)<<s+1)
	}
	for _, v := range vals {
		got := appendDecimal(make([]byte, 0, 32), v)
		if want := strconv.AppendUint(nil, v, 10); string(got) != string(want) {
			t.Fatalf("appendDecimal(%d) = %q, want %q", v, got, want)
		}
	}
	prefix := append(make([]byte, 0, 32), "x,"...)
	if got := string(appendDecimal(prefix, 1905)); got != "x,1905" {
		t.Fatalf("appendDecimal after a prefix: %q", got)
	}
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
