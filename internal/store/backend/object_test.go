package backend

import (
	"bytes"
	"testing"
)

// WriteAt grows an object by capacity doubling; the spare capacity must
// never show: a hole past the old end reads as zeros even where a
// Truncate left stale bytes behind, and a Clone stops at the size.
func TestObjectWriteAtGrowth(t *testing.T) {
	b := NewObject()
	f, err := b.Create("o", 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 100; i++ {
		chunk := bytes.Repeat([]byte{byte(i + 1)}, 37)
		if _, err := f.WriteAt(chunk, int64(len(want))); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	read := func(f ReadFile) []byte {
		t.Helper()
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		if _, err := f.ReadAt(got, 0); err != nil && size > 0 {
			t.Fatal(err)
		}
		return got
	}
	if got := read(f); !bytes.Equal(got, want) {
		t.Fatalf("object holds %d bytes after appends, want the %d written", len(got), len(want))
	}

	// Cut the object down, then write beyond the new end: the gap holds
	// zeros, not the bytes the truncate cut off.
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("tail"), 50); err != nil {
		t.Fatal(err)
	}
	want = append(append(want[:10:10], make([]byte, 40)...), "tail"...)
	if got := read(f); !bytes.Equal(got, want) {
		t.Fatalf("after truncate+write the object reads %q, want %q", got, want)
	}
	cf, err := b.Clone().OpenRead("o")
	if err != nil {
		t.Fatal(err)
	}
	if got := read(cf); !bytes.Equal(got, want) {
		t.Fatalf("clone reads %q, want %q", got, want)
	}
}
