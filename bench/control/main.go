// Command control is the benchmark's control server: a small HTTP
// server that never changes, built from this directory alone, which the
// loader drives in short blocks between the blocks it sends to
// btrace-serve — same connections, same request shapes, same pacing.
// The reference box's speed drifts by tens of percent over minutes
// (README.md, "The box"), and it drags both servers alike, so a latency
// or CPU figure divided by the control's figure from the same second
// repeats where the raw one does not.
//
// It imports nothing from the repository on purpose: a change to the
// code under test must not move the yardstick. Do not "optimise" it.
package main

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/csv"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
)

// The scan endpoint walks a fixed table the way an export walks a cold
// segment: the table is kept DEFLATEd in chunks, a request inflates
// chunk after chunk, copies each record's payload out and formats a CSV
// row from its header through encoding/csv — allocation, garbage
// collection and all.
const (
	recordBytes = 96 // a 24-byte header and a payload
	chunkRows   = 4096
	chunks      = 16
	maxScanRows = 1 << 20
)

var deflated = func() [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, chunks)
	for c := range out {
		raw := make([]byte, chunkRows*recordBytes)
		for i := range raw {
			// Half random, half repeated text, like trace payloads.
			if i%recordBytes < recordBytes/2 {
				raw[i] = byte(rng.Intn(256))
			} else {
				raw[i] = "sched_switch prev_comm="[i%23]
			}
		}
		var buf bytes.Buffer
		zw, _ := flate.NewWriter(&buf, flate.DefaultCompression)
		zw.Write(raw)
		zw.Close()
		out[c] = buf.Bytes()
	}
	return out
}()

var bodies = sync.Pool{New: func() any { return make([]byte, 0, 64<<10) }}

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	flag.Parse()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/ingest", ingest)
	mux.HandleFunc("/scan", scan)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

// ingest reads the whole body, checksums it and answers 202 with the
// byte count and the checksum: the shape of an /ingest ack with none of
// the work behind it.
func ingest(w http.ResponseWriter, r *http.Request) {
	buf := bodies.Get().([]byte)[:0]
	defer func() { bodies.Put(buf) }()
	var chunk [16 << 10]byte
	for {
		n, err := r.Body.Read(chunk[:])
		buf = append(buf, chunk[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"bytes\":%d,\"crc\":%d}\n", len(buf), crc32.ChecksumIEEE(buf))
}

// scan streams rows CSV rows in the export's column layout.
func scan(w http.ResponseWriter, r *http.Request) {
	rows, err := strconv.Atoi(r.URL.Query().Get("rows"))
	if err != nil || rows < 1 || rows > maxScanRows {
		http.Error(w, "rows must be in [1, 1048576]", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	cw := csv.NewWriter(w)
	cw.Write([]string{"stamp", "ts", "core", "tid", "category", "level", "payload_bytes"})
	chunk := make([]byte, chunkRows*recordBytes)
	for i := 0; i < rows; i++ {
		if i%chunkRows == 0 {
			zr := flate.NewReader(bytes.NewReader(deflated[i/chunkRows%chunks]))
			if _, err := io.ReadFull(zr, chunk); err != nil {
				panic(err) // the table is this program's own
			}
		}
		rec := chunk[i%chunkRows*recordBytes:][:recordBytes]
		payload := append([]byte(nil), rec[24:]...)
		err := cw.Write([]string{
			strconv.Itoa(i + 1),
			strconv.FormatUint(binary.LittleEndian.Uint64(rec[0:])>>20, 10),
			strconv.Itoa(int(rec[8] & 7)),
			strconv.FormatUint(uint64(binary.LittleEndian.Uint32(rec[12:])>>12), 10),
			categories[rec[16]&7],
			strconv.Itoa(int(crc32.ChecksumIEEE(payload) & 3)),
			strconv.Itoa(len(payload)),
		})
		if err != nil {
			return // the client went away
		}
	}
	cw.Flush()
}

var categories = [8]string{"sched", "irq", "binder", "gfx", "input", "power", "mm", "io"}
