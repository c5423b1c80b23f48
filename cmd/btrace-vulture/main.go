// Command btrace-vulture continuously verifies a running btrace-serve:
// it writes known stamped traces through POST /ingest and reads every
// acked stamp back through each query surface — the /live tail, the
// /store/query range read, the BTQL filter and count() pipelines, and
// the cold columnar tier — and exits non-zero if any acked stamp was
// lost, duplicated or delivered out of order. CI runs it as a soak gate
// (make vulture-soak); operators can point it at a live deployment as a
// canary.
//
//	btrace-vulture -url http://localhost:8321 -duration 60s -strict-live
//
// Exit codes: 0 every surface kept the ack contract, 1 violations were
// found (the report names them), 2 the run could not be set up.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"btrace/internal/vulture"
)

func main() {
	url := flag.String("url", "http://localhost:8321", "base URL of the btrace-serve under test")
	tenant := flag.String("tenant", "", "tenant to write and tail as (X-Btrace-Tenant; empty = default tenant)")
	duration := flag.Duration("duration", 30*time.Second, "how long to keep writing (verification drains afterwards)")
	writers := flag.Int("writers", 2, "concurrent write streams, one TID each")
	batch := flag.Int("batch", 64, "events per ingest batch")
	interval := flag.Duration("interval", 20*time.Millisecond, "per-writer pause between batches")
	settle := flag.Duration("settle", 500*time.Millisecond, "ack-to-read-back grace for the async single-store path")
	coldAge := flag.Duration("cold-age", 0, "re-verify each range at this age to exercise the cold tier (0 = skip; set past the server's -cold-after)")
	btqlProbe := flag.Bool("btql", true, "also read each range back as a BTQL ?q= filter and count() aggregate")
	liveTail := flag.Bool("live", true, "verify the /live SSE surface too")
	strictLive := flag.Bool("strict-live", false, "require every admitted event accounted for on /live (server must run without sampling or shedding)")
	payloadBytes := flag.Int("payload", 32, "payload bytes per event (>= 8; the stamp is echoed in the payload)")
	reportPath := flag.String("report", "", "write the Prometheus-style report to this file as well as stdout")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("btrace-vulture: soaking %s for %v (%d writers x %d events)",
		*url, *duration, *writers, *batch)
	rep, err := vulture.Run(ctx, vulture.RunnerConfig{
		BaseURL:      *url,
		Tenant:       *tenant,
		Writers:      *writers,
		Batch:        *batch,
		Interval:     *interval,
		Settle:       *settle,
		Duration:     *duration,
		ColdAge:      *coldAge,
		BTQL:         *btqlProbe,
		Live:         *liveTail,
		StrictLive:   *strictLive,
		PayloadBytes: *payloadBytes,
		Logf:         log.Printf,
	})
	if rep != nil {
		rep.WritePrometheus(os.Stdout)
		if *reportPath != "" {
			f, ferr := os.Create(*reportPath)
			if ferr != nil {
				log.Printf("btrace-vulture: report file: %v", ferr)
			} else {
				rep.WritePrometheus(f)
				f.Close()
			}
		}
	}
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "btrace-vulture:", err)
		os.Exit(2)
	}
	if rep.Failed() {
		fmt.Fprintln(os.Stderr, "btrace-vulture: ACK CONTRACT BROKEN (see report above)")
		os.Exit(1)
	}
	log.Printf("btrace-vulture: clean — every acked stamp read back once, in order, on every surface")
}
