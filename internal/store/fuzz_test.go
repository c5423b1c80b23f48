package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/tracer"
)

// buildSegmentImage writes count records into a fresh store and returns
// the raw unsealed active-segment bytes — the on-disk state of a process
// killed mid-run.
func buildSegmentImage(t testing.TB, count int) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, Config{SegmentBytes: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	var es []tracer.Entry
	for s := 1; s <= count; s++ {
		es = append(es, mkEntryTB(uint64(s)))
	}
	if err := st.AppendEntries(es); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, "seg-00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	return img
}

// mkEntryTB mirrors mkEntry for testing.TB contexts (fuzz targets).
func mkEntryTB(stamp uint64) tracer.Entry {
	return tracer.Entry{
		Stamp: stamp, TS: stamp * 1000, Core: uint8(stamp % 4),
		TID: uint32(stamp % 7), Category: uint8(stamp % 5), Level: uint8(stamp%3 + 1),
		Payload: bytes.Repeat([]byte{byte(stamp)}, int(stamp%29)),
	}
}

// FuzzSegmentRecover mangles a real segment image — truncation at an
// arbitrary offset plus an arbitrary byte flip — and asserts the store
// always reopens, delivers only whole, correctly decoded records, and
// never fabricates a record that was not written.
func FuzzSegmentRecover(f *testing.F) {
	img := buildSegmentImage(f, 64)
	f.Add(uint32(len(img)), uint32(0), byte(0))
	f.Add(uint32(len(img)-1), uint32(0), byte(0))
	f.Add(uint32(len(img)-3), uint32(headerSize+9), byte(0xff))
	f.Add(uint32(headerSize+1), uint32(7), byte(0x80))
	f.Add(uint32(12), uint32(60), byte(1))
	f.Add(uint32(0), uint32(0), byte(0))
	f.Fuzz(func(t *testing.T, cut uint32, flipAt uint32, flipBits byte) {
		mangled := append([]byte(nil), img...)
		if int(cut) < len(mangled) {
			mangled = mangled[:cut]
		}
		if flipBits != 0 && len(mangled) > 0 {
			mangled[int(flipAt)%len(mangled)] ^= flipBits
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.seg"), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("Open on mangled segment: %v", err)
		}
		defer st.Close()
		cur := st.Query(Query{})
		defer cur.Close()
		es, err := tracer.Drain(cur, 32)
		if err != nil {
			t.Fatalf("Drain over recovered store: %v", err)
		}
		seen := map[uint64]bool{}
		for _, e := range es {
			// Every surviving record must be one we actually wrote, whole.
			if e.Stamp == 0 || e.Stamp > 64 {
				t.Fatalf("fabricated stamp %d", e.Stamp)
			}
			if seen[e.Stamp] {
				t.Fatalf("duplicate stamp %d", e.Stamp)
			}
			seen[e.Stamp] = true
			want := mkEntryTB(e.Stamp)
			if e.TS != want.TS || e.Core != want.Core || e.TID != want.TID ||
				e.Category != want.Category || e.Level != want.Level ||
				!bytes.Equal(e.Payload, want.Payload) {
				t.Fatalf("record %d corrupted after recovery: %+v", e.Stamp, e)
			}
		}
		// The recovered store must accept appends (the crash-reopen-resume
		// path) and read them back.
		next := uint64(1000)
		e := mkEntryTB(next)
		if err := st.AppendEntries([]tracer.Entry{e}); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		after := st.Query(Query{Pred: where(btql.Between(btql.FStamp, next, 0))})
		defer after.Close()
		got, err := tracer.Drain(after, 8)
		if err != nil || len(got) != 1 || got[0].Stamp != next {
			t.Fatalf("post-recovery append not readable: n=%d err=%v", len(got), err)
		}
	})
}
