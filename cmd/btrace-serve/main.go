// Command btrace-serve is the trace server. It runs over one durable
// segment store, or with -shards over a replicated ring of them under
// the -store root, which it requires. It takes wire records on POST
// /ingest through the shared admission path (verify, tenant quotas, the
// overload gate), answers /store/query — BTQL and the field parameters,
// one predicate — over the tiered store, streams admitted events on
// /live (SSE), runs the background compactor and freezer, and exposes
// /ring, /metrics, /readyz and /debug/pprof. The paper's tables and
// figures, replays and readout exports are the harness's own commands:
// btrace-bench, btrace-replay and btrace-inspect.
//
//	btrace-serve -addr localhost:8321 -store ./trace-store
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"btrace/internal/ingest"
	"btrace/internal/live"
	"btrace/internal/store"
	"btrace/internal/store/backend"
)

// drainDeadline bounds graceful shutdown: in-flight requests get this
// long to finish after SIGINT/SIGTERM before the server is torn down.
const drainDeadline = 10 * time.Second

func main() {
	addr := flag.String("addr", "localhost:8321", "listen address")
	storeDir := flag.String("store", "", "durable trace store directory (required; with -shards, the cluster root)")
	queryWorkers := flag.Int("query-workers", store.DefaultQueryWorkers, "scan workers for a /store/query without ?workers=, in [0, 32] (0 = one scan worker)")
	segmentBytes := flag.Int64("segment-bytes", 0, "store segment roll size in bytes (0 = default 1MiB)")
	commitEvery := flag.Duration("commit-every", 0, "store group-commit interval (0 = fsync only on demand)")
	commitBytes := flag.Int64("commit-bytes", 0, "store group-commit byte threshold (0 = no byte trigger)")
	compactInterval := flag.Duration("compact-interval", 0, "background compactor tick interval: merge + freeze pass (0 = no background compaction)")
	coldAfter := flag.Duration("cold-after", 0, "age at which sealed segments are compressed into the cold tier, in virtual-time terms (0 = never freeze)")
	backendKind := flag.String("backend", "local", "store backend: local (directory) or object (in-process, volatile; for demos and tests)")
	sampleRate := flag.Float64("sample-rate", 0.05, "ingest head-sampling keep-rate floor under full overload, in (0, 1]")
	rateLimit := flag.Float64("rate-limit", 0, "per-category ingest rate limit in events/sec of virtual time (0 = unlimited)")
	rateBurst := flag.Float64("rate-burst", 0, "token-bucket burst for -rate-limit (0 = 2x the rate)")
	shed := flag.Bool("shed", true, "enable tiered load shedding on the ingest path")
	shards := flag.Int("shards", 0, "run a replicated in-process cluster of this many store shards under the -store root (0 = single store)")
	replication := flag.Int("replication", 2, "replicas per stream key in cluster mode (quorum-acked)")
	tenantOverrides := flag.String("tenant-overrides", "", "per-tenant ingest quotas in either mode, e.g. alpha=1000,beta=500:2000 (events/sec of virtual time[:burst])")
	liveBuffer := flag.Int("live-buffer", 0, "per-subscriber /live ring capacity in events (0 = default 4096)")
	liveSubscribers := flag.Int("live-subscribers", 0, "max concurrent /live subscribers (0 = default 64)")
	liveMaxMissed := flag.Uint64("live-max-missed", 0, "missed-event count at which a slow /live subscriber is evicted (0 = default 65536)")
	flag.Parse()

	if err := checkFlags(*storeDir, *sampleRate, *rateLimit, *rateBurst, *shards, *queryWorkers); err != nil {
		fmt.Fprintln(os.Stderr, "btrace-serve:", err)
		os.Exit(2)
	}

	// The live hub is the post-gate fan-out both pipelines publish
	// admitted batches to.
	hub := live.NewHub(live.Config{
		BufferEvents:     *liveBuffer,
		MaxSubscribers:   *liveSubscribers,
		EvictAfterMissed: *liveMaxMissed,
	})
	overrides, err := ingest.ParseOverrides(*tenantOverrides)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btrace-serve:", err)
		os.Exit(2)
	}
	icfg := ingestConfig{
		SampleRate: *sampleRate,
		RateLimit:  *rateLimit,
		RateBurst:  *rateBurst,
		Shed:       *shed,
		Overrides:  overrides,
		Hub:        hub,
	}
	scfg := store.Config{
		SegmentBytes:    *segmentBytes,
		CommitEvery:     *commitEvery,
		CommitBytes:     *commitBytes,
		CompactInterval: *compactInterval,
		ColdAfterNs:     uint64(coldAfter.Nanoseconds()),
	}
	objectBackend := false
	switch *backendKind {
	case "local":
	case "object":
		objectBackend = true
	default:
		fmt.Fprintf(os.Stderr, "btrace-serve: -backend must be local or object, got %q\n", *backendKind)
		os.Exit(2)
	}

	// One boot fork: a shard ring under the -store root, fronted by the
	// consistent-hash distributor, or a single store with its own ingest
	// drain. Deferred closes run in reverse, so a drain stops (with a
	// final flush) before its store closes.
	var srv *server
	if *shards > 0 {
		cluster, err := newClusterPipeline(clusterConfig{
			Dir:           *storeDir,
			Shards:        *shards,
			Replication:   *replication,
			Ingest:        icfg,
			Store:         scfg,
			ObjectBackend: objectBackend,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "btrace-serve: cluster:", err)
			os.Exit(1)
		}
		defer cluster.Close()
		log.Printf("btrace-serve: %s under %s", cluster.d, *storeDir)
		srv = newServer(nil, *queryWorkers)
		srv.attachCluster(cluster)
	} else {
		if objectBackend {
			scfg.Backend = backend.NewObject()
		}
		ts, err := store.Open(*storeDir, scfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "btrace-serve: open store:", err)
			os.Exit(1)
		}
		defer ts.Close()
		log.Printf("btrace-serve: store %s (%d segments, %d events)",
			ts.Dir(), len(ts.Segments()), ts.Events())
		ing, err := newIngestPipeline(ts, icfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "btrace-serve: ingest:", err)
			os.Exit(1)
		}
		defer ing.Close()
		srv = newServer(ts, *queryWorkers)
		srv.attachIngest(ing)
	}
	srv.attachLive(hub)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// A wedged or malicious client must not pin a serving goroutine
		// forever; a large export can take a while, so the write timeout
		// is generous but finite (/live lifts it per stream).
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("btrace-serve listening on http://%s", *addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		log.Printf("btrace-serve: shutting down (draining up to %v)", drainDeadline)
		dctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("btrace-serve: shutdown: %v", err)
			os.Exit(1)
		}
	}
}

// checkFlags refuses a server with no store and the numeric flag values
// that mean nothing, instead of reading them as some other setting.
// Negative rates, bursts and shard counts are refused rather than run as
// unlimited, as the default burst and as a single store, and
// -query-workers is held to the range ?workers= is. Every comparison is
// written so that NaN fails it.
func checkFlags(storeDir string, sampleRate, rateLimit, rateBurst float64, shards, queryWorkers int) error {
	switch {
	case storeDir == "":
		return errors.New("-store is required (the store directory, or with -shards the cluster root)")
	case !(sampleRate > 0 && sampleRate <= 1):
		return fmt.Errorf("-sample-rate must be in (0, 1], got %v", sampleRate)
	case !(rateLimit >= 0):
		return fmt.Errorf("-rate-limit must be >= 0, got %v", rateLimit)
	case !(rateBurst >= 0):
		return fmt.Errorf("-rate-burst must be >= 0, got %v", rateBurst)
	case shards < 0:
		return fmt.Errorf("-shards must be >= 0, got %d", shards)
	case queryWorkers < 0 || queryWorkers > maxQueryWorkers:
		return fmt.Errorf("-query-workers must be in [0, %d], got %d", maxQueryWorkers, queryWorkers)
	}
	return nil
}
