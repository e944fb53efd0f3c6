// Package device provides a software stand-in for the paper's OpenCL
// execution environment: a "kernel launch" runtime that runs a data-parallel
// kernel body over a logical thread grid using a pool of worker goroutines.
//
// The paper's GPU implementation (Section 4, Algorithm 2) launches one
// kernel with N/2 threads per butterfly stage; each logical thread executes
// an independent body and the host loop forms an implicit barrier between
// stages. This package reproduces exactly that execution model:
//
//   - Launch(n, kernel) runs kernel(id) for every id in [0, n) and returns
//     only after all logical threads finished (the stage barrier);
//   - LaunchStages dispatches a whole fused stage-group as one launch with
//     a single barrier, the dispatch form used by the cache-blocked
//     butterfly kernels (one barrier per group instead of one per stage);
//   - logical threads are chunked over a persistent pool of long-lived
//     worker goroutines parked on a channel (see pool.go), the software
//     analogue of scheduling thread blocks over resident multiprocessors;
//   - the vector kernels (veckernels.go) implement the reductions used for
//     norms and residuals, which the paper notes "can be relatively well
//     parallelized", on fixed blocks so results never depend on the
//     worker count.
//
// A Device with one worker executes everything on the calling goroutine,
// and the vector kernels also accept a nil *Device, which runs them inline:
// serial twins with bit-identical results. Launch
// statistics are recorded so benchmarks can report grid sizes. The legacy
// goroutine-per-chunk dispatch is kept behind WithSpawnDispatch so the
// pool-vs-spawn cost can be measured rather than asserted.
package device

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/span"
)

// Device executes data-parallel kernels over worker goroutines. A Device is
// safe for sequential reuse; concurrent Launch calls on the same Device are
// permitted (the pool serves them independently) but kernels racing on the
// same data remain the caller's responsibility.
type Device struct {
	workers int
	grain   int
	spawn   bool // legacy goroutine-per-chunk dispatch (benchmarks only)

	launches       atomic.Int64
	threadsTotal   atomic.Int64
	chunksTotal    atomic.Int64
	reduceLaunches atomic.Int64
	stageLaunches  atomic.Int64
	stagesFused    atomic.Int64

	// partial holds the block partials of a parallel reduction, allocated
	// once (grown on demand), owned by the reduction holding partialBusy.
	partial     []float64
	partialBusy atomic.Bool
}

// Option configures a Device.
type Option func(*Device)

// WithGrain sets the minimum number of logical threads per dispatched chunk.
// Smaller grains increase scheduling overhead; larger grains reduce
// available parallelism. The default (4096) matches the memory-bound
// character of the butterfly kernel.
func WithGrain(g int) Option {
	return func(d *Device) {
		if g > 0 {
			d.grain = g
		}
	}
}

// WithSpawnDispatch selects the legacy dispatch that spawns one goroutine
// per chunk on every launch instead of reusing the persistent worker pool.
// It exists so benchmarks can quantify the per-launch scheduling cost the
// pool removes; solver code should never use it.
func WithSpawnDispatch() Option {
	return func(d *Device) { d.spawn = true }
}

// New returns a Device with the given number of workers. workers <= 0
// selects runtime.GOMAXPROCS(0), the software analogue of "all
// multiprocessors on the card".
func New(workers int, opts ...Option) *Device {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := &Device{workers: workers, grain: 4096}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Serial returns a Device that runs every kernel on the calling goroutine.
// It is the bit-identical reference for the parallel paths.
func Serial() *Device { return New(1) }

// Workers returns the worker count of the device.
func (d *Device) Workers() int { return d.workers }

// Launch runs kernel(id) for every logical thread id in [0, n) and returns
// after all of them completed — one kernel launch with grid size n in GPU
// terms. Kernels must not assume any execution order between ids.
func (d *Device) Launch(n int, kernel func(id int)) {
	d.LaunchRange(n, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			kernel(id)
		}
	})
}

// plan partitions a grid of n logical threads into contiguous chunks of at
// least grain threads, at most one chunk per worker.
func (d *Device) plan(n, grain int) (chunk, nchunks int) {
	if grain < 1 {
		grain = 1
	}
	chunk = (n + d.workers - 1) / d.workers
	if chunk < grain {
		chunk = grain
	}
	return chunk, (n + chunk - 1) / chunk
}

// LaunchRange runs kernel(lo, hi) over a partition of [0, n) into
// contiguous chunks. It is the chunked form of Launch for kernels that can
// amortize per-thread setup over a range, mirroring how real kernels
// process several elements per thread when profitable.
func (d *Device) LaunchRange(n int, kernel func(lo, hi int)) {
	if n <= 0 {
		return
	}
	d.launches.Add(1)
	d.threadsTotal.Add(int64(n))

	chunk, nchunks := d.plan(n, d.grain)
	d.chunksTotal.Add(int64(nchunks))
	d.run(LaunchKindRange, n, chunk, nchunks, kernel, nil)
}

// LaunchStages dispatches a fused group of `stages` dependent butterfly
// stages as ONE data-parallel launch over n independent work items: the
// kernel applies the whole stage-group to each item it receives, so the
// only barrier is the launch's own completion — one barrier per group
// instead of one per stage. weight is the number of scalar elements each
// work item touches (e.g. the tile length); the dispatch grain is scaled by
// it so heavyweight items still spread across workers.
func (d *Device) LaunchStages(stages, n, weight int, kernel func(lo, hi int)) {
	if n <= 0 || stages <= 0 {
		return
	}
	d.launches.Add(1)
	d.stageLaunches.Add(1)
	d.stagesFused.Add(int64(stages))
	d.threadsTotal.Add(int64(n))

	if weight < 1 {
		weight = 1
	}
	chunk, nchunks := d.plan(n, d.grain/weight)
	d.chunksTotal.Add(int64(nchunks))
	d.run(LaunchKindStages, n, chunk, nchunks, kernel, nil)
}

// run executes a planned launch with the configured dispatch. The body is
// kernel, or the built-in vector kernel vk when kernel is nil. kind is the
// launch family reported to an installed LaunchObserver and the name of the
// device-layer span; with neither hook installed the only instrumentation
// cost is the two atomic loads.
func (d *Device) run(kind string, n, chunk, nchunks int, kernel func(lo, hi int), vk *vecArgs) {
	h := launchObs.Load()
	sr := span.Installed()
	if h == nil && sr == nil {
		d.dispatch(n, chunk, nchunks, kernel, vk, false)
		return
	}
	var sp span.Handle
	if sr != nil {
		sp = sr.Begin(span.LayerDevice, kind)
	}
	start := time.Now()
	wait := d.dispatch(n, chunk, nchunks, kernel, vk, true)
	if sr != nil {
		// The barrier tail is reported post hoc inside the still-open
		// launch span, so it shows as the launch's child in the profile.
		if wait > 0 {
			sr.Record(span.LayerDevice, SpanQueueWait, wait, int64(nchunks), 0)
		}
		span.End(sp, int64(n), int64(nchunks))
	}
	if h != nil {
		h.o.Launch(kind, n, nchunks, time.Since(start), wait)
	}
}

// dispatch runs a planned launch; with measureWait it returns the barrier
// tail the submitting goroutine spent waiting on pool workers.
func (d *Device) dispatch(n, chunk, nchunks int, kernel func(lo, hi int), vk *vecArgs, measureWait bool) time.Duration {
	if nchunks == 1 || d.workers == 1 {
		if kernel != nil {
			kernel(0, n)
		} else {
			vk.run(0, n)
		}
		return 0
	}
	if d.spawn {
		if kernel == nil {
			k := *vk // the spawned closures must not capture the caller's copy
			spawnChunks(n, chunk, nchunks, k.run)
		} else {
			spawnChunks(n, chunk, nchunks, kernel)
		}
		return 0
	}
	b := getBatch()
	b.kernel, b.n, b.chunk, b.nchunks = kernel, n, chunk, nchunks
	if kernel == nil {
		b.vec = *vk
	}
	return runPooled(b, d.workers-1, measureWait)
}

// spawnChunks is the legacy dispatch: one goroutine per chunk.
func spawnChunks(n, chunk, nchunks int, kernel func(lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(nchunks)
	for c := 0; c < nchunks; c++ {
		lo := c * chunk
		hi := min(lo+chunk, n)
		go func(lo, hi int) {
			defer wg.Done()
			kernel(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Stats is a snapshot of the launch counters of a Device.
type Stats struct {
	Launches       int64 // kernel launches performed (incl. stage-group launches)
	ReduceLaunches int64 // reduction launches performed
	ThreadsTotal   int64 // sum of grid sizes over all launches
	ChunksTotal    int64 // dispatched chunks over all launches
	StageLaunches  int64 // fused stage-group launches (LaunchStages calls)
	StagesFused    int64 // butterfly stages covered by stage-group launches
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		Launches:       d.launches.Load(),
		ReduceLaunches: d.reduceLaunches.Load(),
		ThreadsTotal:   d.threadsTotal.Load(),
		ChunksTotal:    d.chunksTotal.Load(),
		StageLaunches:  d.stageLaunches.Load(),
		StagesFused:    d.stagesFused.Load(),
	}
}

// ResetStats zeroes the device counters.
func (d *Device) ResetStats() {
	d.launches.Store(0)
	d.threadsTotal.Store(0)
	d.chunksTotal.Store(0)
	d.reduceLaunches.Store(0)
	d.stageLaunches.Store(0)
	d.stagesFused.Store(0)
}

// String describes the device, e.g. "device(8 workers, grain 4096)".
func (d *Device) String() string {
	mode := ""
	if d.spawn {
		mode = ", spawn dispatch"
	}
	return fmt.Sprintf("device(%d workers, grain %d%s)", d.workers, d.grain, mode)
}
