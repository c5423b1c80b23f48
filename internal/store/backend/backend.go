// Package backend abstracts the trace store's segment I/O behind a
// small filesystem-shaped contract, so the same store engine runs
// against a local directory (backend/local), an in-process object store
// (Object, used by tests and the chaos suite), or any future remote
// tier.
//
// The contract is deliberately narrow — create, ranged read, positional
// append, seal, list, remove, rename — because that is exactly what the
// store's crash-safety story needs:
//
//   - Rename must be atomic with respect to a crash: after Rename
//     returns, a reopened backend sees either the old name or the new
//     one, never both, never a torn file. The store's tier transition
//     (cold compression) commits through one Rename.
//   - Sync must make a file's bytes durable before it returns; the
//     store orders every rename-commit after the Sync of the file being
//     renamed in.
//   - Remove of an open file must not invalidate existing handles
//     (POSIX inode semantics): cursors keep reading a segment that
//     retention or a freeze deleted underneath them.
//   - Seal declares a file's contents final. A sealed file rejects
//     further writes; object-store style backends use it as the
//     put-on-seal commit point.
//
// The object backend meets the same contract as the local one
// (TestObjectBackendConformance, in internal/store), and its crash
// snapshots are what TestCompactionChaosTierBoundaries reopens.
package backend

import "io"

// ReadFile is a read-only handle: ranged reads plus the committed size.
type ReadFile interface {
	io.ReaderAt
	io.Closer
	// Size returns the file's current size in bytes.
	Size() (int64, error)
}

// File is a writable handle as the store uses one: positional writes
// (the write pipeline tracks its own offsets), truncation of a
// preallocated or torn tail, durability, and the seal that ends the
// file's mutable life.
type File interface {
	ReadFile
	io.WriterAt
	// Truncate cuts (or extends) the file to size bytes.
	Truncate(size int64) error
	// Sync makes every completed write durable.
	Sync() error
	// Seal marks the contents final: every later WriteAt or Truncate
	// through any handle must fail. Sealing is idempotent.
	Seal() error
}

// Backend is a flat namespace of segment files. Implementations must be
// safe for concurrent use: the store's writer, maintenance, compactor
// and cursor goroutines all hold handles at once.
type Backend interface {
	// Lock takes the backend-wide exclusive store lock; closing the
	// returned handle releases it. A second Lock (same or another
	// process, where meaningful) fails fast instead of letting two
	// recoveries truncate each other's files.
	Lock() (io.Closer, error)
	// List returns the names that start with prefix ("" = everything),
	// sorted ascending.
	List(prefix string) ([]string, error)
	// Create creates (truncating any previous content) a writable file.
	// preallocBytes > 0 is a best-effort size hint: backends that can
	// reserve space up front (fallocate) do; others ignore it.
	Create(name string, preallocBytes int64) (File, error)
	// OpenRW opens an existing file for recovery: ranged reads plus the
	// header rewrite and tail truncation recovery performs.
	OpenRW(name string) (File, error)
	// OpenRead opens an existing file read-only.
	OpenRead(name string) (ReadFile, error)
	// Remove deletes a name. Open handles stay readable.
	Remove(name string) error
	// Rename atomically replaces newName with oldName's content.
	Rename(oldName, newName string) error
	// Location describes the backend for logs and errors (a directory
	// path, an object-store bucket, ...).
	Location() string
}
