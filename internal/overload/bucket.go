package overload

// Bucket is a token bucket refilled on virtual time: capacity burst,
// refill rate tokens/second of the event stream's own TS clock, so the
// limiter behaves identically under replayed and live time. The zero
// value is a bucket that has never seen time; its first Take fills it
// to burst. The gate's per-category limits and internal/ingest's quota
// overrides both draw from it. Not safe for concurrent use.
type Bucket struct {
	tokens float64
	lastNs uint64
	primed bool
}

// Take refills by the virtual time elapsed since the last take and
// spends one token if available. Out-of-order timestamps never refill
// (the clock latches forward only) and never drain: a late event draws
// against the bucket's current state.
func (b *Bucket) Take(nowNs uint64, rate, burst float64) bool {
	if !b.primed {
		b.tokens, b.lastNs, b.primed = burst, nowNs, true
	} else if nowNs > b.lastNs {
		b.tokens += float64(nowNs-b.lastNs) * rate / 1e9
		if b.tokens > burst {
			b.tokens = burst
		}
		b.lastNs = nowNs
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
