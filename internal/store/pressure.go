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
// recent append and fsync latency averages, and whether the write path
// has failed sticky (or the store is closed). It takes no lock, so it
// is cheap enough to call once per collector step and never waits on a
// write or an fsync.
func (st *Store) Pressure() overload.StorePressure {
	return overload.StorePressure{
		AppendNs: st.ewmaAppend.load(),
		FsyncNs:  st.ewmaFsync.load(),
		Failed:   st.WriteErr() != nil,
	}
}

// WriteErr peeks the write path's sticky error without appending — the
// error the next append would return: non-nil means every later append
// will fail until the store is reopened (ErrClosed once the store is
// closed, whatever failed before). It takes no lock.
func (st *Store) WriteErr() error {
	if st.closed.Load() {
		return ErrClosed
	}
	if p := st.werr.Load(); p != nil {
		return *p
	}
	return nil
}
