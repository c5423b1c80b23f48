package core

import "btrace/internal/tracer"

// TracerName is the registry name of BTrace.
const TracerName = "btrace"

// Adapter wraps a Buffer as a tracer.Tracer for the benchmark harness.
type Adapter struct {
	*Buffer
}

// Name implements tracer.Tracer.
func (Adapter) Name() string { return TracerName }

// TotalBytes implements tracer.Tracer: the live capacity budget.
func (a Adapter) TotalBytes() int { return a.Buffer.Capacity() }

// NewCursor implements tracer.Tracer with the core's native
// arena-backed cursor.
func (a Adapter) NewCursor() tracer.Cursor { return a.Buffer.NewCursor() }

var _ tracer.Tracer = Adapter{}

func init() {
	tracer.Register(TracerName, func(totalBytes, cores, threads int) (tracer.Tracer, error) {
		opt, err := OptionsForBudget(totalBytes, cores, DefaultBlockSize, DefaultActivePerCore)
		if err != nil {
			return nil, err
		}
		b, err := New(opt)
		if err != nil {
			return nil, err
		}
		return Adapter{b}, nil
	})
}
