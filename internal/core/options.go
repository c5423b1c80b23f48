package core

import (
	"fmt"

	"btrace/internal/tracer"
)

// Default parameter values. The defaults mirror the paper's evaluation
// setup: 4 KiB data blocks and A = 16 x cores active blocks (the sweet
// spot found in §5.1, Fig. 10).
const (
	DefaultBlockSize     = 4096
	DefaultActivePerCore = 16
	MinBlockSize         = 128
	maxRatioLimit        = 1 << 15
	headerSize           = tracer.BlockHeaderSize
)

// Options configures a Buffer.
type Options struct {
	// Cores is the number of virtual cores that will produce traces.
	Cores int

	// BlockSize is the size of one data block in bytes. Must be a
	// multiple of tracer.Align and at least MinBlockSize.
	// The paper uses one page (4 KiB).
	BlockSize int

	// ActiveBlocks is A: the number of blocks all cores may operate on
	// simultaneously, and equally the number of metadata blocks. Must be
	// >= Cores (§3.2). 0 selects DefaultActivePerCore x Cores.
	ActiveBlocks int

	// Ratio is the initial number of data blocks per metadata block, so
	// the initial capacity is ActiveBlocks x Ratio x BlockSize.
	Ratio int

	// MaxRatio bounds Ratio for the lifetime of the buffer; the backing
	// memory is reserved at ActiveBlocks x MaxRatio x BlockSize (the
	// paper reserves virtual address space at maximum size, §4.4).
	// 0 means MaxRatio = Ratio (no headroom for growth).
	MaxRatio int

	// PoisonOnReclaim overwrites reclaimed data blocks with a poison
	// pattern after a shrink, so tests catch any use-after-reclaim.
	PoisonOnReclaim bool

	// DisableStats disables every self-observability counter update:
	// Stats/Repairs/BlockedWaits return zeros and the buffer is not
	// registered with the obs registry. Benchmark-only — this is the
	// uninstrumented baseline BenchmarkObsOverhead measures the metric
	// layer's cost against.
	DisableStats bool

	// BlockOnStragglers is the §3.4 ablation switch: instead of skipping
	// a candidate block held by a preempted writer, wait for the writer
	// to confirm (the availability policy of a global-buffer tracer such
	// as BBQ). Off by default — skipping is a core BTrace contribution;
	// the ablation quantifies what it buys.
	BlockOnStragglers bool
}

// normalize fills defaults and validates. It returns the normalized copy.
func (o Options) normalize() (Options, error) {
	if o.Cores <= 0 {
		return o, fmt.Errorf("core: Cores must be positive, got %d", o.Cores)
	}
	if o.Cores > 255 {
		return o, fmt.Errorf("core: at most 255 cores supported, got %d", o.Cores)
	}
	if o.BlockSize == 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.BlockSize < MinBlockSize || o.BlockSize%tracer.Align != 0 {
		return o, fmt.Errorf("core: BlockSize must be a multiple of %d and >= %d, got %d",
			tracer.Align, MinBlockSize, o.BlockSize)
	}
	if o.BlockSize >= 1<<30 {
		return o, fmt.Errorf("core: BlockSize too large: %d", o.BlockSize)
	}
	if o.ActiveBlocks == 0 {
		o.ActiveBlocks = DefaultActivePerCore * o.Cores
	}
	if o.ActiveBlocks < o.Cores {
		return o, fmt.Errorf("core: ActiveBlocks (%d) must be >= Cores (%d) to ensure sufficient concurrency",
			o.ActiveBlocks, o.Cores)
	}
	if o.Ratio <= 0 {
		return o, fmt.Errorf("core: Ratio must be positive, got %d", o.Ratio)
	}
	if o.MaxRatio == 0 {
		o.MaxRatio = o.Ratio
	}
	if o.MaxRatio < o.Ratio {
		return o, fmt.Errorf("core: MaxRatio (%d) < Ratio (%d)", o.MaxRatio, o.Ratio)
	}
	if o.MaxRatio > maxRatioLimit {
		return o, fmt.Errorf("core: MaxRatio %d exceeds limit %d", o.MaxRatio, maxRatioLimit)
	}
	return o, nil
}

// Capacity returns the live capacity in bytes implied by the options
// (ActiveBlocks x Ratio x BlockSize).
func (o Options) Capacity() int {
	return o.ActiveBlocks * o.Ratio * o.BlockSize
}

// MaxCapacity returns the reserved capacity (ActiveBlocks x MaxRatio x
// BlockSize).
func (o Options) MaxCapacity() int {
	return o.ActiveBlocks * o.MaxRatio * o.BlockSize
}

// OptionsForBudget derives Options for a total buffer budget in bytes, the
// way the evaluation configures every tracer: A = 16 x cores (unless
// activePerCore overrides) and as many data blocks of blockSize as fit the
// budget, with the ratio rounded down. It returns an error if the budget
// cannot hold at least one block per metadata block.
func OptionsForBudget(totalBytes, cores, blockSize, activePerCore int) (Options, error) {
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	if activePerCore == 0 {
		activePerCore = DefaultActivePerCore
	}
	a := activePerCore * cores
	n := totalBytes / blockSize
	if n < cores {
		return Options{}, fmt.Errorf("core: budget %d B holds %d blocks of %d B, need >= %d (cores)",
			totalBytes, n, blockSize, cores)
	}
	// The effectivity ceiling is 1-A/N (§3.2): with a small budget the
	// preferred A would leave no inactive blocks at all, so shrink A to
	// keep at least minRatio rounds of blocks (never below the core
	// count, which concurrency requires).
	const minRatio = 4
	if n/a < minRatio {
		a = n / minRatio
		if a < cores {
			a = cores
		}
	}
	ratio := n / a
	return Options{
		Cores:        cores,
		BlockSize:    blockSize,
		ActiveBlocks: a,
		Ratio:        ratio,
		MaxRatio:     ratio,
	}, nil
}
