// Command btrace-inspect analyzes a serialized readout produced by
// btrace-replay -dump, or a durable trace store directory: it lists
// per-core and per-category composition, stamp continuity (fragments
// and gaps), and the time span covered — the offline workflow a
// developer uses when a trace is pulled from a device.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"btrace/internal/btql"
	"btrace/internal/export"
	"btrace/internal/report"
	"btrace/internal/store"
	"btrace/internal/tracer"
	"btrace/internal/workload"
)

func main() {
	var (
		maxGaps = flag.Int("gaps", 10, "maximum number of gaps to list")
		format  = flag.String("format", "summary", "output: summary|text|chrome|csv")
		tiers   = flag.Bool("tiers", false, "print the store's blocklist and per-tier totals instead of event analysis (store directories only)")
		blocks  = flag.Bool("blocks", false, "print per-block columnar metadata: column ranges, dictionary size, bloom fill, section sizes (store directories only)")
		query   = flag.String("query", "", "BTQL query to run against the store; a pipeline aggregate prints its result, a plain filter streams matches in -format (store directories only)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: btrace-inspect [flags] <readout-file | store-dir>")
		os.Exit(2)
	}
	var err error
	switch {
	case *tiers:
		err = runTiers(flag.Arg(0))
	case *blocks:
		err = runBlocks(flag.Arg(0))
	case *query != "":
		err = runQuery(os.Stdout, flag.Arg(0), *query, *format)
	default:
		err = run(flag.Arg(0), *maxGaps, *format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "btrace-inspect:", err)
		os.Exit(1)
	}
}

// runTiers prints the storage-tier view of a store directory: one
// blocklist row per segment (what the compaction strategy polls) and the
// per-tier aggregates, including the cold tier's compression ratio. A
// cluster root (a directory of shard-* store directories, as laid out by
// btrace-serve -shards) gets the same view per shard plus fleet totals.
func runTiers(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return fmt.Errorf("%s: -tiers needs a store directory", path)
	}
	if shards, err := clusterShards(path); err != nil {
		return err
	} else if len(shards) > 0 {
		return runClusterTiers(path, shards)
	}
	st, err := store.Open(path, store.Config{})
	if err != nil {
		return err
	}
	defer st.Close()
	renderStoreTiers(st, "")
	return nil
}

// openStoreDir opens path as a store directory, rejecting plain files.
func openStoreDir(path, forFlag string) (*store.Store, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("%s: %s needs a store directory", path, forFlag)
	}
	return store.Open(path, store.Config{})
}

// runBlocks prints the cold tier's per-block directory metadata: the
// numbers query pruning runs on. Reading them against a workload's
// predicates shows whether blocks actually prune (tight stamp/TID
// ranges, low bloom fill) or degenerate to full scans.
func runBlocks(path string) error {
	st, err := openStoreDir(path, "-blocks")
	if err != nil {
		return err
	}
	defer st.Close()
	infos := st.ColdBlocks()
	if len(infos) == 0 {
		fmt.Println("no cold blocks (nothing frozen yet)")
		return nil
	}
	tb := report.NewTable("cold blocks",
		"file", "blk", "ver", "events", "stamps", "tids", "dict", "bloom", "meta", "payload", "chunks", "comp", "raw", "ratio")
	for _, b := range infos {
		tids, dict, bloom, meta, pay, chunks := "-", "-", "-", "-", "-", "-"
		if b.Version >= 2 { // columnar
			tids = fmt.Sprintf("%d..%d", b.MinTID, b.MaxTID)
			dict = fmt.Sprintf("%d", b.DictSize)
			bloom = fmt.Sprintf("%.0f%%", 100*b.BloomFill)
			meta = report.HumanBytes(uint64(b.MetaBytes))
			pay = report.HumanBytes(uint64(b.PayBytes))
			chunks = fmt.Sprintf("%d x %d rows", b.PayChunks, b.ChunkRows)
		}
		tb.AddRow(b.File, b.Index, b.Version, b.Events,
			fmt.Sprintf("%d..%d", b.BaseStamp, b.MaxStamp),
			tids, dict, bloom, meta, pay, chunks,
			report.HumanBytes(uint64(b.CompBytes)), report.HumanBytes(uint64(b.RawBytes)),
			fmt.Sprintf("%.2fx", float64(b.RawBytes)/float64(b.CompBytes)))
	}
	tb.Render(os.Stdout)
	return nil
}

// runQuery executes a BTQL query against a store directory and writes
// the answer to w. A pipeline aggregate executes columnar (cold v2
// blocks never materialize events, and payload sections stay compressed
// unless the predicate inspects payloads) and prints its JSON result; a
// plain filter streams the matching events in the chosen format, one
// 1024-event batch at a time, which is also what the scan is asked for:
// only text prints payload bytes, so every other format reads payload
// lengths alone (store.Query.LengthsOnly). summary counts the matches
// and the time between the first and the last as they pass.
func runQuery(w io.Writer, path, src, format string) error {
	bq, err := btql.Parse(src)
	if err != nil {
		return err
	}
	if format == "" {
		format = "summary"
	}
	needsPayload, ok := export.NeedsPayload(format)
	if !ok && format != "summary" {
		return fmt.Errorf("unknown format %q (summary|text|chrome|csv)", format)
	}
	st, err := openStoreDir(path, "-query")
	if err != nil {
		return err
	}
	defer st.Close()
	var q store.Query
	if bq.Filter != nil {
		q.Pred = bq.Predicate()
	}
	if bq.Agg != nil {
		results, missed, err := st.Aggregate(q, []btql.AggSpec{*bq.Agg})
		if err != nil {
			return err
		}
		if missed > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d event(s) deleted by retention during the pass\n", missed)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(results[0])
	}
	q.LengthsOnly = !needsPayload
	cur := st.Query(q)
	defer cur.Close()
	batch := make([]tracer.Entry, 1024)
	if format == "summary" {
		var n int
		var first, last uint64
		for e, err := range tracer.Events(cur, batch) {
			if err != nil {
				return err
			}
			if n == 0 {
				first = e.TS
			}
			last = e.TS
			n++
		}
		_, err = fmt.Fprintf(w, "%d events match %q (%.3fs span)\n", n, src, float64(last-first)/1e9)
		return err
	}
	bw := bufio.NewWriter(w)
	switch format {
	case "text":
		_, _, err = export.TextCursor(bw, cur, batch)
	case "csv":
		_, _, err = export.CSVCursor(bw, cur, batch)
	default: // "chrome": the format was checked before the store was opened
		_, _, err = export.ChromeTraceCursor(bw, cur, batch)
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// clusterShards detects a cluster root: the shard-* subdirectories a
// btrace-serve -shards deployment creates. A directory with none is a
// plain single store.
func clusterShards(path string) ([]string, error) {
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var shards []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			shards = append(shards, e.Name())
		}
	}
	sort.Strings(shards)
	return shards, nil
}

// runClusterTiers renders the per-shard tier views and the fleet
// aggregate: which shard holds what, and how the tiers add up cluster-
// wide.
func runClusterTiers(root string, shards []string) error {
	type agg struct {
		segments, blocks int
		bytes, raw       int64
		events           uint64
	}
	perTier := map[string]*agg{}
	var tierOrder []string
	for _, name := range shards {
		st, err := store.Open(filepath.Join(root, name), store.Config{})
		if err != nil {
			return fmt.Errorf("shard %s: %w", name, err)
		}
		renderStoreTiers(st, name)
		for _, ts := range st.TierStats() {
			a := perTier[ts.Tier]
			if a == nil {
				a = &agg{}
				perTier[ts.Tier] = a
				tierOrder = append(tierOrder, ts.Tier)
			}
			a.segments += ts.Segments
			a.blocks += ts.Blocks
			a.bytes += ts.Bytes
			a.raw += ts.RawBytes
			a.events += ts.Events
		}
		st.Close()
	}
	tb := report.NewTable(fmt.Sprintf("cluster tiers (%d shards)", len(shards)),
		"tier", "segments", "bytes", "raw", "blocks", "events", "ratio")
	for _, tier := range tierOrder {
		a := perTier[tier]
		ratio := "-"
		if a.bytes > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(a.raw)/float64(a.bytes))
		}
		tb.AddRow(tier, a.segments, report.HumanBytes(uint64(a.bytes)),
			report.HumanBytes(uint64(a.raw)), a.blocks, a.events, ratio)
	}
	tb.Render(os.Stdout)
	return nil
}

// renderStoreTiers prints one store's blocklist and tier tables; shard
// labels the tables when the store is one member of a cluster.
func renderStoreTiers(st *store.Store, shard string) {
	label := func(name string) string {
		if shard == "" {
			return name
		}
		return name + " " + shard
	}
	// A cold file's format: its blocks' version, and from v3 on how the
	// payload section is cut ("v3 128r x 2346" — 2346 payload chunks of
	// 128 rows; v2's is one stream per block; a file may mix versions).
	formats := map[string]map[string]int{} // file → format → payload chunks
	for _, b := range st.ColdBlocks() {
		f := fmt.Sprintf("v%d", b.Version)
		if b.Version >= 3 {
			f += fmt.Sprintf(" %dr", b.ChunkRows)
		}
		if formats[b.File] == nil {
			formats[b.File] = map[string]int{}
		}
		formats[b.File][f] += b.PayChunks
	}
	describe := func(file string) string {
		var parts []string
		for f, chunks := range formats[file] {
			if strings.Contains(f, " ") {
				f += fmt.Sprintf(" x %d", chunks)
			}
			parts = append(parts, f)
		}
		if len(parts) == 0 {
			return "rows"
		}
		sort.Strings(parts)
		return strings.Join(parts, ", ")
	}
	tb := report.NewTable(label("blocklist"), "seq", "file", "tier", "sealed", "format", "bytes", "raw", "blocks", "events", "stamps")
	for _, s := range st.Segments() {
		tb.AddRow(s.Seq, s.File, s.Tier, s.Sealed, describe(s.File), report.HumanBytes(uint64(s.Bytes)),
			report.HumanBytes(uint64(s.RawBytes)), s.Blocks, s.Events,
			fmt.Sprintf("%d..%d", s.BaseStamp, s.MaxStamp))
	}
	tb.Render(os.Stdout)

	tb = report.NewTable(label("tiers"), "tier", "segments", "bytes", "raw", "blocks", "events", "ratio")
	for _, ts := range st.TierStats() {
		ratio := "-"
		if ts.Bytes > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(ts.RawBytes)/float64(ts.Bytes))
		}
		tb.AddRow(ts.Tier, ts.Segments, report.HumanBytes(uint64(ts.Bytes)),
			report.HumanBytes(uint64(ts.RawBytes)), ts.Blocks, ts.Events, ratio)
	}
	tb.Render(os.Stdout)
}

// load reads the events to inspect: a directory is opened as a durable
// segment store (recovering any torn tail), a file is decoded as a raw
// readout dump.
func load(path string) ([]tracer.Entry, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		st, err := store.Open(path, store.Config{})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		if s := st.Stats(); s.RecoveredTruncations > 0 {
			fmt.Fprintf(os.Stderr, "warning: recovered %d torn segment tail(s), dropped %d byte(s)\n",
				s.RecoveredTruncations, s.TornBytesDropped)
		}
		cur := st.Query(store.Query{})
		defer cur.Close()
		return tracer.Drain(cur, 1024)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Stream the dump record by record: one record buffer, regardless of
	// readout size.
	dec := export.NewDecoder(bufio.NewReader(f))
	es, err := dec.DecodeInto(nil)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, tracer.ErrCorrupt) {
		return nil, err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "warning: trailing bytes were not decodable (truncated dump?)")
	}
	return es, nil
}

func run(path string, maxGaps int, format string) error {
	es, err := load(path)
	if err != nil {
		return err
	}
	if len(es) == 0 {
		return fmt.Errorf("no events in %s", path)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Stamp < es[j].Stamp })

	switch format {
	case "summary":
		// fallthrough to the summary report below
	case "text":
		return export.Text(os.Stdout, es)
	case "chrome":
		return export.ChromeTrace(os.Stdout, es)
	case "csv":
		return export.CSV(os.Stdout, es)
	default:
		return fmt.Errorf("unknown format %q (summary|text|chrome|csv)", format)
	}

	var (
		bytesTotal uint64
		perCore    = map[uint8]int{}
		perCat     = map[uint8]int{}
		tids       = map[uint32]bool{}
		fragments  = 1
		minTS      = es[0].TS
		maxTS      = es[0].TS
	)
	for i, e := range es {
		bytesTotal += uint64(e.WireSize())
		perCore[e.Core]++
		perCat[e.Category]++
		tids[e.TID] = true
		if e.TS < minTS {
			minTS = e.TS
		}
		if e.TS > maxTS {
			maxTS = e.TS
		}
		if i > 0 && e.Stamp != es[i-1].Stamp+1 {
			fragments++
		}
	}

	fmt.Printf("%s: %d events, %s, stamps %d..%d, %d fragments, %d threads, %.3fs span\n",
		path, len(es), report.HumanBytes(bytesTotal), es[0].Stamp, es[len(es)-1].Stamp,
		fragments, len(tids), float64(maxTS-minTS)/1e9)

	tb := report.NewTable("per core", "core", "events", "share")
	cores := make([]int, 0, len(perCore))
	for c := range perCore {
		cores = append(cores, int(c))
	}
	sort.Ints(cores)
	for _, c := range cores {
		n := perCore[uint8(c)]
		tb.AddRow(c, n, fmt.Sprintf("%.1f%%", 100*float64(n)/float64(len(es))))
	}
	tb.Render(os.Stdout)

	tb = report.NewTable("per category", "category", "events", "share")
	cats := make([]int, 0, len(perCat))
	for c := range perCat {
		cats = append(cats, int(c))
	}
	sort.Slice(cats, func(i, j int) bool { return perCat[uint8(cats[i])] > perCat[uint8(cats[j])] })
	for _, c := range cats {
		n := perCat[uint8(c)]
		tb.AddRow(workload.Category(c).Name(), n, fmt.Sprintf("%.1f%%", 100*float64(n)/float64(len(es))))
	}
	tb.Render(os.Stdout)

	// Gap listing from stamp discontinuities.
	shown := 0
	for i := 1; i < len(es) && shown < maxGaps; i++ {
		if es[i].Stamp != es[i-1].Stamp+1 {
			fmt.Printf("gap: stamps %d..%d missing (%d events)\n",
				es[i-1].Stamp+1, es[i].Stamp-1, es[i].Stamp-es[i-1].Stamp-1)
			shown++
		}
	}
	return nil
}
