package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"btrace/internal/ingest"
	"btrace/internal/live"
	"btrace/internal/store"
)

// drainDeadline bounds graceful shutdown: in-flight requests get this
// long to finish after SIGINT/SIGTERM before the server is torn down.
const drainDeadline = 10 * time.Second

func main() {
	addr := flag.String("addr", "localhost:8321", "listen address")
	storeDir := flag.String("store", "", "durable trace store directory (required; with -shards, the cluster root)")
	segmentBytes := flag.Int64("segment-bytes", 0, "store segment roll size in bytes (0 = default 1MiB)")
	commitEvery := flag.Duration("commit-every", 0, "store group-commit interval (0 = no timer: sealed segments are fsynced as they seal, the active one by Sync, Seal or Close)")
	compactInterval := flag.Duration("compact-interval", 0, "background compactor tick interval: one freeze pass of aged sealed segments into the cold tier (0 = no background compaction)")
	coldAfter := flag.Duration("cold-after", 0, "age at which sealed segments are compressed into the cold tier, in virtual-time terms (0 = never freeze)")
	sampleRate := flag.Float64("sample-rate", 0.05, "ingest head-sampling keep-rate floor under full overload, in (0, 1]")
	rateLimit := flag.Float64("rate-limit", 0, "per-category ingest rate limit in events/sec of virtual time, with a burst of twice that (0 = unlimited)")
	shed := flag.Bool("shed", true, "enable tiered load shedding on the ingest path")
	shards := flag.Int("shards", 0, "run a replicated in-process cluster of this many store shards under the -store root (0 = single store)")
	replication := flag.Int("replication", 2, "replicas per stream key in cluster mode (quorum-acked)")
	tenantOverrides := flag.String("tenant-overrides", "", "per-tenant ingest quotas in either mode, e.g. alpha=1000,beta=500:2000 (events/sec of virtual time[:burst])")
	flag.Parse()

	if err := checkFlags(serveFlags{
		storeDir:        *storeDir,
		sampleRate:      *sampleRate,
		rateLimit:       *rateLimit,
		shards:          *shards,
		replication:     *replication,
		segmentBytes:    *segmentBytes,
		commitEvery:     *commitEvery,
		compactInterval: *compactInterval,
		coldAfter:       *coldAfter,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "btrace-serve:", err)
		os.Exit(2)
	}

	// The live hub is the post-gate fan-out both pipelines publish
	// admitted batches to.
	hub := live.NewHub(live.Config{})
	overrides, err := ingest.ParseOverrides(*tenantOverrides)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btrace-serve:", err)
		os.Exit(2)
	}
	icfg := ingestConfig{
		SampleRate: *sampleRate,
		RateLimit:  *rateLimit,
		Shed:       *shed,
		Overrides:  overrides,
		Hub:        hub,
	}
	scfg := store.Config{
		SegmentBytes:    *segmentBytes,
		CommitEvery:     *commitEvery,
		CompactInterval: *compactInterval,
		ColdAfterNs:     uint64(coldAfter.Nanoseconds()),
	}
	// One boot fork: a shard ring under the -store root, fronted by the
	// consistent-hash distributor, or a single store. Shutdown below
	// waits for the handlers, and each handler appends its own batch, so
	// the deferred closes find nothing in flight.
	var srv *server
	if *shards > 0 {
		cluster, err := newClusterPipeline(clusterConfig{
			Dir:         *storeDir,
			Shards:      *shards,
			Replication: *replication,
			Ingest:      icfg,
			Store:       scfg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "btrace-serve: cluster:", err)
			os.Exit(1)
		}
		defer cluster.Close()
		log.Printf("btrace-serve: %s under %s", cluster.d, *storeDir)
		srv = newServer(nil)
		srv.attachCluster(cluster)
	} else {
		ts, err := store.Open(*storeDir, scfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "btrace-serve: open store:", err)
			os.Exit(1)
		}
		defer ts.Close()
		log.Printf("btrace-serve: store %s (%d segments, %d events)",
			ts.Dir(), len(ts.Segments()), ts.Events())
		ing := newIngestPipeline(ts, icfg)
		defer ing.Close()
		srv = newServer(ts)
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

// serveFlags are the flag values checkFlags vets.
type serveFlags struct {
	storeDir                                string
	sampleRate, rateLimit                   float64
	shards, replication                     int
	segmentBytes                            int64
	commitEvery, compactInterval, coldAfter time.Duration
}

// checkFlags refuses a server with no store and the numeric flag values
// that mean nothing, instead of reading them as some other setting; it
// is the one place the flags are vetted, before anything boots.
// Negative rates and shard counts are refused rather than run as
// unlimited and as a single store, and an infinite -rate-limit rather
// than run as the unlimited 0; a one-shard cluster and a -replication
// outside [1, -shards] rather than failing once boot has begun; negative
// durations and sizes rather than run as "off" or the default, and a
// negative -cold-after rather than wrapped into a huge age that freezes
// everything. Every comparison is written so that NaN fails it.
func checkFlags(f serveFlags) error {
	switch {
	case f.storeDir == "":
		return errors.New("-store is required (the store directory, or with -shards the cluster root)")
	case !(f.sampleRate > 0 && f.sampleRate <= 1):
		return fmt.Errorf("-sample-rate must be in (0, 1], got %v", f.sampleRate)
	case !(f.rateLimit >= 0):
		return fmt.Errorf("-rate-limit must be >= 0, got %v", f.rateLimit)
	case !(f.rateLimit <= math.MaxFloat64):
		return fmt.Errorf("-rate-limit must be finite (0 is unlimited), got %v", f.rateLimit)
	case f.shards < 0:
		return fmt.Errorf("-shards must be >= 0, got %d", f.shards)
	case f.shards == 1:
		return errors.New("-shards must be 0 (a single store) or at least 2, got 1")
	case f.shards > 0 && (f.replication < 1 || f.replication > f.shards):
		return fmt.Errorf("-replication must be in [1, %d] (-shards), got %d", f.shards, f.replication)
	case f.segmentBytes < 0:
		return fmt.Errorf("-segment-bytes must be >= 0, got %d", f.segmentBytes)
	case f.commitEvery < 0:
		return fmt.Errorf("-commit-every must be >= 0, got %v", f.commitEvery)
	case f.compactInterval < 0:
		return fmt.Errorf("-compact-interval must be >= 0, got %v", f.compactInterval)
	case f.coldAfter < 0:
		return fmt.Errorf("-cold-after must be >= 0, got %v", f.coldAfter)
	}
	return nil
}
