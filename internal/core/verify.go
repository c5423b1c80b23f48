package core

import "fmt"

// VerifyReport is the result of Buffer.Verify: the DESIGN.md quiescence
// invariants checked at runtime, with violations reported instead of
// panicking, so a caller (the chaos suite, a collector) can examine a
// suspect buffer and keep running.
type VerifyReport struct {
	// Violations describes every invariant breach found; empty means the
	// buffer is consistent.
	Violations []string
	// Blocks is the number of live block positions examined.
	Blocks int
	// InvalidBlocks is the number of positions whose content failed to
	// parse. Stale positions (metadata already past them, i.e. implicitly
	// reclaimed data) are counted here but are not violations; only an
	// unparseable current round breaches DESIGN.md invariant 3.
	InvalidBlocks int
	// Entries is the number of events recovered during verification.
	Entries int
}

// Ok reports whether no violation was found.
func (r VerifyReport) Ok() bool { return len(r.Violations) == 0 }

// Verify checks the buffer against the DESIGN.md invariants that are
// observable from outside the write path:
//
//   - invariant 2: every metadata block's confirmed count is within the
//     block size, and — at quiescence — matches its allocated position;
//   - invariant 3: every block still in its current round is skipped,
//     dummy-closed, or fully parseable (positions the metadata already
//     moved past hold implicitly reclaimed data and may parse as invalid);
//   - invariant 4: the live configuration stays within the reserved
//     [1, MaxRatio] ratio range (at most A blocks are writable by
//     construction: there are exactly A metadata blocks);
//   - invariant 5: the readout is totally ordered by stamp with no
//     duplicates, and stamps within one producer thread are strictly
//     increasing.
//
// Verify is intended for quiescence (no concurrent writers): concurrent
// writes can make the point-in-time metadata reads look transiently
// inconsistent. It never panics; inconsistencies are returned.
func (b *Buffer) Verify() VerifyReport {
	var rep VerifyReport
	bs := uint32(b.opt.BlockSize)

	ratio, _ := unpackGlobal(b.global.Load())
	if ratio < 1 || ratio > b.opt.MaxRatio {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("ratio %d outside [1, %d]", ratio, b.opt.MaxRatio))
	}

	for i := range b.metas {
		m := &b.metas[i]
		aRnd, aPos := unpackMeta(m.allocated.Load())
		cRnd, cFull := unpackMeta(m.confirmed.Load())
		cCnt := b.cBytes(cFull)
		if cCnt > bs {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("meta %d: confirmed count %d exceeds block size %d (invariant 2)", i, cCnt, bs))
		}
		switch {
		case aRnd != cRnd:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("meta %d: allocated round %d != confirmed round %d at quiescence", i, aRnd, cRnd))
		default:
			// The allocated position may overshoot the block size (benign
			// straddle overshoot, writer.go); clamp before comparing.
			eff := aPos
			if eff > bs {
				eff = bs
			}
			if cCnt > eff {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("meta %d: confirmed %d > allocated %d in round %d (invariant 2)", i, cCnt, eff, cRnd))
			}
			if cCnt < eff {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("meta %d: %d bytes allocated but unconfirmed at quiescence in round %d", i, eff-cCnt, cRnd))
			}
		}
	}

	r := b.NewReader()
	defer r.Close()
	entries, infos := r.Snapshot()
	rep.Blocks = len(infos)
	rep.Entries = len(entries)
	for _, info := range infos {
		if info.State != BlockInvalid {
			continue
		}
		rep.InvalidBlocks++
		// Invariant 3 applies to blocks of the live configuration: a
		// position whose metadata has already moved on holds data placed
		// under an older round or ratio — implicit reclaiming discards it
		// by design (§3.3), so failing to parse it is expected. Only an
		// unparseable *current* round is a violation.
		m, rr := b.metaOf(info.Pos)
		if cRnd, _ := unpackMeta(m.confirmed.Load()); cRnd == rr {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("pos %d: current round unparseable (invariant 3)", info.Pos))
		}
	}

	perThread := map[uint32]uint64{}
	var last uint64
	for i := range entries {
		e := &entries[i]
		if i > 0 && e.Stamp == last {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("stamp %d: duplicate in readout (invariant 5)", e.Stamp))
		}
		last = e.Stamp
		if prev, ok := perThread[e.TID]; ok && e.Stamp <= prev {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("thread %d: stamp %d not strictly increasing after %d (invariant 5)", e.TID, e.Stamp, prev))
		}
		perThread[e.TID] = e.Stamp
	}
	b.ctrs.verified(len(rep.Violations))
	return rep
}
