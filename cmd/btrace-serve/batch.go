package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"unsafe"

	"btrace/internal/tracer"
)

// maxIngestBody caps a single POST /ingest payload. At 32 bytes minimum
// per wire record this is well over 100k events — a batch, not a bulk
// import; larger uploads should be split.
const maxIngestBody = 4 << 20

var tooLargeMsg = fmt.Sprintf("payload exceeds %d bytes", maxIngestBody)

// maxPooledBatch bounds the memory (body plus entries) a batch may
// carry back into the pool, so one oversized upload cannot pin
// megabytes per pooled batch for the life of the process.
const maxPooledBatch = 1 << 20

// ingestBatch is one POST /ingest from socket to segment: the request
// body and the events decoded from it, whose payloads alias the body.
// It has exactly one owner at a time — the handler until the batch is
// enqueued (or Distributor.Ingest returns), the drain goroutine after —
// and the owner that finishes with it calls release. Nothing downstream
// keeps a reference: the store's staging arena and live.Hub.Publish
// copy what they retain.
type ingestBatch struct {
	tenant string
	body   []byte
	es     []tracer.Entry
}

var batchPool = sync.Pool{New: func() any { return new(ingestBatch) }}

// poisonReleased makes release scribble over what it takes back, so a
// reader that outlived its ownership sees garbage instead of plausible
// events (internal/core poisons reclaimed blocks the same way). Set by
// the package's tests before any server runs; never in production.
var poisonReleased bool

// release returns the batch to the pool; the caller must not touch it,
// nor any entry or payload decoded from it, afterwards.
func (b *ingestBatch) release() {
	if poisonReleased {
		body := b.body[:cap(b.body)]
		for i := range body {
			body[i] = 0xDB
		}
		clear(b.es[:cap(b.es)])
	}
	if cap(b.body)+cap(b.es)*int(unsafe.Sizeof(tracer.Entry{})) > maxPooledBatch {
		return
	}
	b.tenant, b.body, b.es = "", b.body[:0], b.es[:0]
	batchPool.Put(b)
}

// fill reads and decodes one request into b. A non-zero status is the
// refusal to answer with.
func (b *ingestBatch) fill(r *http.Request) (status int, msg string) {
	b.tenant = r.Header.Get(tenantHeader)
	if n := r.ContentLength; n > maxIngestBody {
		return http.StatusRequestEntityTooLarge, tooLargeMsg
	} else if n >= 0 {
		// net/http holds the body reader to Content-Length, so the one
		// buffer the header sized is all the request can fill.
		b.body = slices.Grow(b.body[:0], int(n))[:n]
		if _, err := io.ReadFull(r.Body, b.body); err != nil {
			return http.StatusBadRequest, "read body: " + err.Error()
		}
		return b.decode()
	}
	// Chunked upload, length unknown: grow as it arrives, up to the cap.
	buf := bytes.NewBuffer(b.body[:0])
	_, err := buf.ReadFrom(io.LimitReader(r.Body, maxIngestBody+1))
	b.body = buf.Bytes()
	if err != nil {
		return http.StatusBadRequest, "read body: " + err.Error()
	}
	if len(b.body) > maxIngestBody {
		return http.StatusRequestEntityTooLarge, tooLargeMsg
	}
	return b.decode()
}

// decode parses b.body (tracer.EncodeEvent framing, concatenated) into
// b.es without copying a payload.
func (b *ingestBatch) decode() (status int, msg string) {
	var truncated bool
	if b.es, truncated = tracer.DecodeEvents(b.es[:0], b.body); truncated {
		return http.StatusBadRequest, "corrupt or truncated record stream"
	}
	if len(b.es) == 0 {
		return http.StatusBadRequest, "no event records in payload"
	}
	return 0, ""
}
