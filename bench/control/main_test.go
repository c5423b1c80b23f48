package main

import (
	"encoding/json"
	"hash/crc32"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestIngestCountsAndChecksumsTheBody(t *testing.T) {
	body := strings.Repeat("0123456789abcdef", 3000) // several reads' worth
	rec := httptest.NewRecorder()
	ingest(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(body)))
	var ack struct {
		Bytes int    `json:"bytes"`
		CRC   uint32 `json:"crc"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || rec.Code != 202 {
		t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body, err)
	}
	if ack.Bytes != len(body) || ack.CRC != crc32.ChecksumIEEE([]byte(body)) {
		t.Errorf("acked %d bytes crc %d, sent %d bytes crc %d", ack.Bytes, ack.CRC, len(body), crc32.ChecksumIEEE([]byte(body)))
	}
}

func TestScanStreamsTheRowsAskedFor(t *testing.T) {
	rec := httptest.NewRecorder()
	scan(rec, httptest.NewRequest("GET", "/scan?rows=70000", nil)) // wraps the table
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if rec.Code != 200 || len(lines) != 70001 || !strings.HasPrefix(lines[0], "stamp,") {
		t.Fatalf("status %d, %d lines, header %q", rec.Code, len(lines), lines[0])
	}
	if !strings.HasPrefix(lines[70000], "70000,") || strings.Count(lines[70000], ",") != 6 {
		t.Errorf("last row %q: want stamp 70000 and seven columns", lines[70000])
	}
	for _, bad := range []string{"/scan", "/scan?rows=0", "/scan?rows=-1", "/scan?rows=9999999", "/scan?rows=x"} {
		rec := httptest.NewRecorder()
		scan(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != 400 {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
	}
}
