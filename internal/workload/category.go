// Package workload models the 20 replay workloads of the paper's
// evaluation (§5 "Workloads"): the top applications and games, the
// developer performance-testing tools, and the typical usage scenarios
// (lock screen, desktop), together with the atrace category mix of Fig. 2,
// the per-core production-speed profiles of Fig. 4, the trace levels of
// Fig. 3 and the thread-oversubscription statistics of Fig. 6.
//
// The real study replays traces captured on production smartphones; those
// traces are not publicly available, so this package generates synthetic
// event streams calibrated to the paper's published aggregates (see
// DESIGN.md, "Faithfulness notes"). Generation is deterministic per
// (workload, core): two runs produce byte-identical schedules.
//
// Contract: the 20 workloads exist by name (TestAllTwentyWorkloads,
// TestByName); generation is deterministic (TestGenDeterminism); the
// per-core speeds, level volumes and oversubscription follow the paper's
// figures (TestFig4Shape, TestFig3LevelVolumes, TestFig6Oversubscription);
// a pinned schedule round-trips byte for byte (TestScheduleRoundTrip).
package workload

// Category enumerates the atrace categories of Fig. 2.
type Category uint8

// The atrace categories, in Fig. 2's legend order.
const (
	CatBinderLock Category = iota
	CatPagecache
	CatBinderDriver
	CatNetwork
	CatHAL
	CatIdle
	CatRes
	CatInput
	CatGfx
	CatPower
	CatView
	CatSched
	CatAM
	CatDalvik
	CatIRQ
	CatSS
	CatFreq
	CatEnergy
	CatWM
	NumCategories // sentinel
)

// Trace levels (§2.2, Fig. 3). Level 1 holds the minimal binder events
// that establish thread dependencies; level 2 adds scheduling decisions
// and IRQs needed for performance diagnosis; level 3 adds the custom
// energy/frequency/idle detail required for system-wide issues.
const (
	Level1 = 1
	Level2 = 2
	Level3 = 3
)

// CategoryInfo describes one atrace category.
type CategoryInfo struct {
	// Name is the atrace category name (Fig. 2 legend).
	Name string
	// PeakMBPerCoreMin is the category's production speed in MB per core
	// per minute when fully exercised (the Fig. 2 bar heights).
	PeakMBPerCoreMin float64
	// Level is the smallest trace level that enables the category.
	Level uint8
	// MeanPayload is the mean event payload in bytes (categories differ:
	// a sched switch record is small, an energy/thermal reasoning record
	// carries explanatory detail).
	MeanPayload int
}

// Categories is the Fig. 2 category table. The bar heights are read off
// the published figure (axis 0-200 MB/core/min); the text's calibration
// point — "idle decisions, frequency altering, scheduling actions and
// energy-aware strategies ... approximately 100 MB of trace data per
// minute on average" per core — holds for the level-3 custom categories.
var Categories = [NumCategories]CategoryInfo{
	CatBinderLock:   {"binder_lock", 15, Level1, 40},
	CatPagecache:    {"pagecache", 10, Level2, 32},
	CatBinderDriver: {"binder_driver", 25, Level1, 56},
	CatNetwork:      {"network", 12, Level2, 48},
	CatHAL:          {"hal", 8, Level2, 40},
	CatIdle:         {"idle", 95, Level3, 24},
	CatRes:          {"res", 5, Level2, 32},
	CatInput:        {"input", 6, Level2, 40},
	CatGfx:          {"gfx", 35, Level2, 48},
	CatPower:        {"power", 20, Level2, 40},
	CatView:         {"view", 30, Level2, 64},
	CatSched:        {"sched", 120, Level2, 48},
	CatAM:           {"am", 10, Level2, 72},
	CatDalvik:       {"dalvik", 15, Level2, 56},
	CatIRQ:          {"irq", 70, Level2, 32},
	CatSS:           {"ss", 8, Level2, 48},
	CatFreq:         {"freq", 140, Level3, 32},
	CatEnergy:       {"energy/thermal/...", 200, Level3, 96},
	CatWM:           {"wm", 6, Level2, 64},
}

// Name returns the category's atrace name.
func (c Category) Name() string {
	if c >= NumCategories {
		return "unknown"
	}
	return Categories[c].Name
}

// LevelWeight returns the total Fig. 2 rate of all categories enabled at
// the given level, in MB per core per minute. It determines both the
// category sampling weights and the relative data volumes of Fig. 3's
// levels.
func LevelWeight(level uint8) float64 {
	var sum float64
	for _, ci := range Categories {
		if ci.Level <= level {
			sum += ci.PeakMBPerCoreMin
		}
	}
	return sum
}
