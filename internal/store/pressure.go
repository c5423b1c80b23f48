// Backpressure export: the write path's health signals, distilled for
// the ingest path's overload gate (internal/overload). The store
// already measures its append and fsync latencies for /metrics; here
// they are additionally folded into cheap EWMAs so a per-step consumer
// gets a recent average without walking histogram buckets.
package store

import (
	"sync/atomic"
	"time"

	"btrace/internal/overload"
)

// ewma is a lock-free 1/8-weight exponentially weighted moving average.
// Updates race benignly (load/store, no CAS loop): the value is a
// pressure signal, not an accounting total.
type ewma struct {
	v atomic.Uint64
	// at is the wall clock of the last observation; reads decay the
	// average against it, so a latency spike fades once the traffic
	// that caused it stops instead of pinning the overload gate at its
	// last sample forever.
	at atomic.Int64
}

// ewmaIdleHalfLife halves an idle EWMA's exported value per interval
// elapsed since its last sample.
const ewmaIdleHalfLife = 500 * time.Millisecond

func (e *ewma) observe(d uint64) {
	old := e.v.Load()
	e.at.Store(time.Now().UnixNano())
	if old == 0 {
		e.v.Store(d)
		return
	}
	e.v.Store(old - old/8 + d/8)
}

func (e *ewma) load() uint64 {
	v := e.v.Load()
	if v == 0 {
		return 0
	}
	idle := time.Now().UnixNano() - e.at.Load()
	if halvings := idle / int64(ewmaIdleHalfLife); halvings > 0 {
		if halvings >= 64 {
			return 0
		}
		v >>= uint(halvings)
	}
	return v
}

// noteFsync records one fsync stall in both the histogram (for
// /metrics) and the EWMA (for Pressure).
func (st *Store) noteFsync(d uint64) {
	st.obs.fsyncNs.Observe(d)
	st.ewmaFsync.observe(d)
}

// Pressure reports the write path's current backpressure signals:
// recent append and fsync latency averages, the staging arena's fill
// fraction, and whether the write path has failed sticky. It is cheap
// enough to call once per collector step.
func (st *Store) Pressure() overload.StorePressure {
	p := &st.pipe
	p.mu.Lock()
	fill := float64(len(p.buf)) / maxStagedBytes
	failed := p.err != nil || p.closed
	p.mu.Unlock()
	if fill > 1 {
		fill = 1
	}
	return overload.StorePressure{
		AppendNs:   st.ewmaAppend.load(),
		FsyncNs:    st.ewmaFsync.load(),
		StagedFill: fill,
		Failed:     failed,
	}
}

// WriteErr peeks the write path's sticky error without appending — the
// error the next append would return: non-nil means every later append
// will fail until the store is reopened (ErrClosed once the store is
// closed, whatever failed before). Consumers that stage asynchronous
// appends use it to learn the path is dead before — or instead of — the
// next append's error.
func (st *Store) WriteErr() error {
	p := &st.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	return p.err
}
