// In-process object backend: an S3-shaped Backend held entirely in
// memory. Objects are named byte blobs; a File buffers writes until
// Seal (or Close), after which the object is immutable — the
// put-on-seal model. Used by the store's conformance and chaos suites,
// where it doubles as a crash camera: Clone snapshots the whole
// namespace at any instant, and a store reopened over the clone sees
// exactly what a crash at that instant would have left behind.

package backend

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
	"sync"
)

// ErrSealed reports a write to a sealed object.
var ErrSealed = errors.New("backend: object is sealed")

// object is one named blob plus its mutability state. Handles share the
// object; data is only ever mutated under mu while unsealed.
type object struct {
	mu     sync.RWMutex
	data   []byte
	sealed bool
}

func (o *object) readAt(p []byte, off int64) (int, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("backend: negative offset %d", off)
	}
	if off >= int64(len(o.data)) {
		return 0, io.EOF
	}
	n := copy(p, o.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (o *object) size() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return int64(len(o.data))
}

// Object is the in-process object store. The zero value is not usable;
// call NewObject.
type Object struct {
	mu      sync.Mutex
	objects map[string]*object
	locked  bool
	name    string
}

// NewObject returns an empty in-process object backend.
func NewObject() *Object {
	return &Object{objects: make(map[string]*object), name: "object:"}
}

// objLock releases the backend-wide lock on Close.
type objLock struct{ b *Object }

func (l *objLock) Close() error {
	l.b.mu.Lock()
	l.b.locked = false
	l.b.mu.Unlock()
	return nil
}

// Lock implements Backend.
func (b *Object) Lock() (io.Closer, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.locked {
		return nil, fmt.Errorf("backend: %s is already in use by another store instance", b.name)
	}
	b.locked = true
	return &objLock{b: b}, nil
}

// List implements Backend.
func (b *Object) List(prefix string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var names []string
	for name := range b.objects {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// objFile is a handle onto one object. The handle stays valid after the
// name is removed or replaced (inode semantics): it references the
// object, not the name.
type objFile struct {
	o        *object
	writable bool
}

func (f *objFile) ReadAt(p []byte, off int64) (int, error) { return f.o.readAt(p, off) }
func (f *objFile) Size() (int64, error)                    { return f.o.size(), nil }
func (f *objFile) Close() error                            { return nil }

func (f *objFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.writable {
		return 0, fmt.Errorf("backend: handle is read-only")
	}
	o := f.o
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sealed {
		return 0, ErrSealed
	}
	if off < 0 {
		return 0, fmt.Errorf("backend: negative offset %d", off)
	}
	if old, end := int64(len(o.data)), off+int64(len(p)); end > old {
		if end <= int64(cap(o.data)) {
			o.data = o.data[:end]
			if off > old {
				// The spare capacity may hold bytes a Truncate cut off;
				// a hole must read as zeros.
				clear(o.data[old:off])
			}
		} else {
			// Appends dominate: doubling keeps growth amortized O(1)
			// instead of recopying the whole object on every write.
			grown := make([]byte, end, max(end, 2*int64(cap(o.data))))
			copy(grown, o.data)
			o.data = grown
		}
	}
	copy(o.data[off:], p)
	return len(p), nil
}

func (f *objFile) Truncate(size int64) error {
	if !f.writable {
		return fmt.Errorf("backend: handle is read-only")
	}
	o := f.o
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sealed {
		return ErrSealed
	}
	if size < 0 {
		return fmt.Errorf("backend: negative size %d", size)
	}
	if size <= int64(len(o.data)) {
		o.data = o.data[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, o.data)
	o.data = grown
	return nil
}

// Sync is a no-op: memory is as durable as this backend gets. Chaos
// wrappers interpose here to model crash points.
func (f *objFile) Sync() error { return nil }

// Seal implements File: the object becomes immutable. An object that
// uses under half its capacity — a preallocated segment sealed early —
// is copied to its length, so what it holds is what it wrote.
func (f *objFile) Seal() error {
	o := f.o
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sealed = true
	if cap(o.data) > 2*len(o.data) {
		o.data = bytes.Clone(o.data)
	}
	return nil
}

// Create implements Backend: preallocBytes is the object's initial
// capacity, so a segment's appends fill it without regrowing.
func (b *Object) Create(name string, preallocBytes int64) (File, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	o := &object{data: make([]byte, 0, max(preallocBytes, 0))}
	b.objects[name] = o
	return &objFile{o: o, writable: true}, nil
}

// OpenRW implements Backend. Recovery may rewrite a sealed segment's
// header and truncate its torn tail, so the seal is lifted: reopening
// for recovery is the one sanctioned way back to mutability.
func (b *Object) OpenRW(name string) (File, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.objects[name]
	if !ok {
		return nil, fmt.Errorf("backend: %s: %w", name, errNotExist)
	}
	o.mu.Lock()
	o.sealed = false
	o.mu.Unlock()
	return &objFile{o: o, writable: true}, nil
}

// OpenRead implements Backend.
func (b *Object) OpenRead(name string) (ReadFile, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.objects[name]
	if !ok {
		return nil, fmt.Errorf("backend: %s: %w", name, errNotExist)
	}
	return &objFile{o: o}, nil
}

// Remove implements Backend. Handles opened before the remove keep
// reading the object's bytes.
func (b *Object) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.objects[name]; !ok {
		return fmt.Errorf("backend: %s: %w", name, errNotExist)
	}
	delete(b.objects, name)
	return nil
}

// Rename implements Backend: the new name atomically references the old
// name's object.
func (b *Object) Rename(oldName, newName string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.objects[oldName]
	if !ok {
		return fmt.Errorf("backend: %s: %w", oldName, errNotExist)
	}
	delete(b.objects, oldName)
	b.objects[newName] = o
	return nil
}

// Location implements Backend.
func (b *Object) Location() string { return b.name }

// Clone deep-copies the namespace: every object's bytes and seal state
// at this instant, with the store lock released. A store opened over
// the clone recovers exactly what a process crash at this instant would
// have left. The chaos suite snapshots after every mutating operation
// to test each tier-transition boundary.
func (b *Object) Clone() *Object {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := NewObject()
	for name, o := range b.objects {
		o.mu.RLock()
		c.objects[name] = &object{data: append([]byte(nil), o.data...), sealed: o.sealed}
		o.mu.RUnlock()
	}
	return c
}

var errNotExist = errors.New("object does not exist")

// IsNotExist reports whether err is any backend's "no such file" —
// fs.ErrNotExist from the local backend or the object backend's own.
func IsNotExist(err error) bool {
	return errors.Is(err, errNotExist) || errors.Is(err, fs.ErrNotExist)
}

var _ Backend = (*Object)(nil)
