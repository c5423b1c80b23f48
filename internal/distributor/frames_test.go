package distributor

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"btrace/internal/store"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

// TestSharedFramesByteIdentical: Ingest frames a batch once and every
// shard writes its rows out of that one buffer, so a shard must hold,
// byte for byte, the segment files a store fed the same rows through
// AppendEntries — which frames them itself — holds. Small segments make
// batches straddle rotations; one batch carries a row that cannot be
// framed, which is refused while the rest of its batch lands.
func TestSharedFramesByteIdentical(t *testing.T) {
	const nShards = 4
	cfg := store.Config{SegmentBytes: 4 << 10}
	bes := make([]*backend.Object, nShards)
	refBes := make([]*backend.Object, nShards)
	refs := make([]*store.Store, nShards)
	shards := make([]Shard, nShards)
	locals := make([]*LocalShard, nShards)
	for i := range shards {
		bes[i], refBes[i] = backend.NewObject(), backend.NewObject()
		st, err := store.OpenBackend(bes[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if locals[i], err = NewLocalShard(LocalConfig{Name: fmt.Sprintf("shard-%02d", i), Store: st}); err != nil {
			t.Fatal(err)
		}
		shards[i] = locals[i]
		if refs[i], err = store.OpenBackend(refBes[i], cfg); err != nil {
			t.Fatal(err)
		}
		defer refs[i].Close()
	}
	d, err := New(shards, Config{Replication: 2, Gate: gateOff(), RecordStamps: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	tids := []uint32{10, 11, 12, 13, 14, 15, 16, 17}
	next := uint64(1)
	for k := 0; k < 12; k++ {
		es := events(256, next, tids...)
		next += uint64(len(es))
		var unframeable uint64
		if k == 5 {
			es[7].Payload = make([]byte, tracer.MaxPayload+1)
			unframeable = es[7].Stamp
		}
		// The reference rows: each shard's share in batch order, the
		// unframeable row nowhere. Taken before Ingest, which filters es
		// in place.
		want := make([][]tracer.Entry, nShards)
		for i := range es {
			if es[i].Stamp == unframeable {
				continue
			}
			owners := ownersOf(d.ring, es[i].TID)
			for si, sh := range shards {
				if slices.Contains(owners, sh.Name()) {
					want[si] = append(want[si], es[i])
				}
			}
		}
		res := d.Ingest("", es)
		if unframeable != 0 {
			if res.Refused != 1 || res.Acked != 255 || !slices.Equal(res.RefusedStamps, []uint64{unframeable}) {
				t.Fatalf("batch %d: %+v, want stamp %d alone refused", k, res, unframeable)
			}
		} else if res.Acked != 256 {
			t.Fatalf("batch %d: %+v, want all 256 acked", k, res)
		}
		for si, rows := range want {
			if len(rows) == 0 {
				continue
			}
			if err := refs[si].AppendEntries(rows); err != nil {
				t.Fatal(err)
			}
		}
	}

	for si := range shards {
		// A commit waits for every rotation's seal finalization, so the
		// sealed headers are final on both sides.
		if err := locals[si].st.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := refs[si].Sync(); err != nil {
			t.Fatal(err)
		}
		got, want := objectFiles(t, bes[si].Clone()), objectFiles(t, refBes[si].Clone())
		if len(want) < 3 {
			t.Fatalf("%s: reference holds %d files; the batches straddled no rotation", shards[si].Name(), len(want))
		}
		if names, wantNames := slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)); !slices.Equal(names, wantNames) {
			t.Fatalf("%s: files %v, reference %v", shards[si].Name(), names, wantNames)
		}
		for name, data := range want {
			if !bytes.Equal(got[name], data) {
				t.Errorf("%s: %s differs from the reference (%d vs %d bytes)", shards[si].Name(), name, len(got[name]), len(data))
			}
		}
	}
}

// objectFiles reads every object of be.
func objectFiles(t *testing.T, be *backend.Object) map[string][]byte {
	t.Helper()
	names, err := be.List("")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		f, err := be.OpenRead(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		if _, err := f.ReadAt(data, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		out[name] = data
	}
	return out
}

// TestIngestAllocatesNothing: over warmed shards an Ingest allocates
// nothing — one pooled encoding, deliveries on the caller's goroutine,
// each shard's gather in a pooled buffer.
func TestIngestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the batch and fan-out pools drop entries under -race")
	}
	d, _ := newTestCluster(t, 4, Config{Replication: 2, Gate: gateOff()})
	es := events(256, 1, 10, 11, 12, 13, 14, 15, 16, 17)
	next := uint64(1)
	ingest := func() {
		for i := range es {
			es[i].Stamp = next
			es[i].TS = next * 1000
			next++
		}
		if res := d.Ingest("", es); res.Acked != len(es) {
			t.Fatalf("%+v, want all %d acked", res, len(es))
		}
	}
	for i := 0; i < 10; i++ {
		ingest() // the segments, the pools and the fan-out scratch
	}
	if allocs := testing.AllocsPerRun(100, ingest); allocs != 0 {
		t.Fatalf("Ingest allocates %v times a call, want 0", allocs)
	}
}
