// Package export converts trace readouts into interchange formats: the
// Chrome trace-event JSON consumed by chrome://tracing and Perfetto (the
// trace viewers the paper's ecosystem uses [17, 37, 39]), CSV for ad-hoc
// analysis, and a human-readable text rendering modeled on the kernel's
// trace output — as slice renderers, and as *Cursor variants and a
// wire-format Encoder/Decoder that never materialise the readout.
//
// A CSV export writes whole rows through one row kernel (csvRow) into a
// pooled 64 KiB buffer, so that a large export reaches the socket in
// 64 KiB writes and a one-row export allocates no buffer.
//
// # Contract
//
//   - CSV bytes are what encoding/csv and strconv write, for every column
//     at every digit-count boundary, through a reused pooled writer and
//     across flushes (TestCSV, TestCSVColumns, TestCSVWriterReuse,
//     TestCSVRowsAcrossFlushes, FuzzCSVRows); a row allocates nothing
//     (BenchmarkExportCSV under benchdiff's -zero-allocs).
//   - Chrome output is valid trace-event JSON, empty readouts included
//     (TestChromeTraceValidJSON, TestChromeTraceEmpty), and text prints
//     every field (TestText).
//   - A *Cursor exporter writes the same document as the slice exporter
//     over the drained readout (TestCursorExportersMatchSliceExporters);
//     CSVCursor over a store cursor's rendered stretches writes the same
//     bytes as over its entries (TestRenderedCSVMatchesOracle, in
//     internal/store).
//   - NeedsPayload says which formats print payload bytes (text) and
//     which print only their sizes (csv, chrome), which is what a server
//     sets a read's length-only projection from (TestNeedsPayload).
//   - Encoder and Decoder round-trip any stream (TestStreamRoundTrip,
//     FuzzStreamRoundTrip, TestStreamEncodeBatchMatchesLoop,
//     TestEncoderFromCursor); the Decoder skips structural records, flags
//     a truncated stream, refuses an oversized record and never panics
//     on arbitrary bytes (TestDecoderSkipsStructuralRecords,
//     TestDecoderTruncatedStream, TestDecoderRejectsOversizedRecord,
//     FuzzDecoderArbitraryBytes).
package export
