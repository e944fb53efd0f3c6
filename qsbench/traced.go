package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/vec"
)

// The traced run re-drives each workload through the layers' exported
// functions, timing every call from here. Nothing inside the program is
// instrumented, so the traced run computes bit for bit what the facade
// computes.

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// acc accumulates the timed calls of one goroutine, in seconds.
type acc struct {
	apply, solve, opBuild, startVec, pointBuild, post float64
	applyCalls, matvecs, escalations                  int
}

// addScaled adds b's times weighted by w, and its counts.
func (a *acc) addScaled(b *acc, w float64) {
	a.apply += w * b.apply
	a.solve += w * b.solve
	a.opBuild += w * b.opBuild
	a.startVec += w * b.startVec
	a.pointBuild += w * b.pointBuild
	a.post += w * b.post
	a.applyCalls += b.applyCalls
	a.matvecs += b.matvecs
	a.escalations += b.escalations
}

// timedOp is a core.Operator that times every Apply of the wrapped
// FmmpOperator; PowerIteration accepts any Operator.
type timedOp struct {
	op *core.FmmpOperator
	a  *acc
}

func (t timedOp) Dim() int { return t.op.Dim() }

func (t timedOp) Apply(dst, src []float64) {
	t0 := time.Now()
	t.op.Apply(dst, src)
	t.a.apply += since(t0)
	t.a.applyCalls++
}

// layers is the per-layer breakdown of one traced unit. Times spent on a
// batch worker are weighted by 1/workers, so that the layer times plus
// the unattributed rest sum to the unit's wall time.
type layers struct {
	acc
	wall          float64
	applyThread   float64 // unweighted apply seconds, for bandwidth
	applyComputed bool    // apply time is matvecs × measured per-call cost
	chains        int
	batchBusy     float64 // thread-seconds inside batch tasks
	batchRun      float64 // wall time of batch.Run
	batchSelf     float64 // batchRun − batchBusy/workers
	batchWorkers  int
}

func (l *layers) unattributed() float64 {
	return l.wall - (l.solve + l.opBuild + l.startVec + l.pointBuild + l.post + l.batchSelf)
}

// solveTraced is solveFacade through the layers: the same operator,
// start vector, tolerance, shift and device as Model.Solve builds.
func solveTraced(s *solveSpec, seeds []uint64) (*unitOut, *layers, error) {
	u := &unitOut{}
	a := &acc{}
	tw := time.Now()
	for _, ls := range seeds {
		t := time.Now()
		land, err := landscape.NewRandom(s.nu, s.c, s.sigma, ls)
		if err != nil {
			return nil, nil, err
		}
		q, err := mutation.NewUniform(s.nu, s.p)
		if err != nil {
			return nil, nil, err
		}
		var dev *device.Device
		if s.workers != 1 {
			dev = device.New(s.workers)
		}
		a.pointBuild += since(t)
		t = time.Now()
		op, err := core.NewFmmpOperator(q, land, core.Right, dev)
		if err != nil {
			return nil, nil, err
		}
		a.opBuild += since(t)
		t = time.Now()
		start := core.FitnessStart(land)
		a.startVec += since(t)
		opts := core.PowerOptions{
			Tol: core.DefaultTolerance(land), MaxIter: 500000, Start: start, Dev: dev,
			Shift: core.ConservativeShift(q, land),
		}
		t = time.Now()
		res, err := core.PowerIteration(timedOp{op, a}, opts)
		a.solve += since(t)
		a.matvecs += res.Iterations
		var gamma []float64
		if err == nil {
			t = time.Now()
			if err = core.Concentrations(res.Vector); err == nil {
				gamma, err = core.ClassConcentrations(s.nu, res.Vector)
			}
			a.post += since(t)
		}
		if err != nil {
			logf("traced solve seed %d: %v", ls, err)
			u.failed++
		}
		u.lambdas = append(u.lambdas, res.Lambda)
		u.gammas = append(u.gammas, gamma)
		u.iters = append(u.iters, res.Iterations)
		u.methods = append(u.methods, "power")
	}
	l := &layers{acc: *a, wall: since(tw), applyThread: a.apply}
	return u, l, nil
}

// sweepTraced is the facade's ThresholdCurveFullWith through the layers:
// the batch engine's chain layout, per-slot scratch, shared landscape
// diagonals and warm starts, with a timer around every layer call.
func sweepTraced(s *sweepSpec, ps []float64) (*unitOut, *layers, error) {
	method, err := core.ParseSolveMethod(s.method)
	if err != nil {
		return nil, nil, err
	}
	adaptive := method != core.SolvePower
	n := len(ps)
	u := &unitOut{gammas: make([][]float64, n), iters: make([]int, n), methods: make([]string, n)}
	warm := make([]bool, n)
	top := &acc{} // calls on the sweep's own goroutine
	tw := time.Now()

	t := time.Now()
	land, err := landscape.NewSinglePeak(s.nu, s.sigma, 1)
	if err != nil {
		return nil, nil, err
	}
	q, err := mutation.NewUniform(s.nu, ps[0])
	if err != nil {
		return nil, nil, err
	}
	top.pointBuild += since(t)
	t = time.Now()
	baseOp, err := core.NewFmmpOperator(q, land, core.Right, nil)
	if err != nil {
		return nil, nil, err
	}
	var baseOpS *core.FmmpOperator
	if adaptive {
		if baseOpS, err = core.NewFmmpOperator(q, land, core.Symmetric, nil); err != nil {
			return nil, nil, err
		}
	}
	top.opBuild += since(t)
	tol := core.DefaultTolerance(land)
	t = time.Now()
	cold := core.FitnessStart(land)
	top.startVec += since(t)

	workers := batch.Workers(s.workers)
	works := make([]*core.PowerWork, workers)
	aworks := make([]*core.AdaptiveWork, workers)
	chains := batch.Chains(n, 0)
	accs := make([]acc, len(chains))
	busy := make([]float64, len(chains))
	t = time.Now()
	err = batch.Run(len(chains), workers, func(ci int, sl *batch.Slot) error {
		tt := time.Now()
		a := &accs[ci]
		defer func() { busy[ci] = since(tt) }()
		var state core.MethodState
		var prev []float64
		for i := chains[ci].Lo; i < chains[ci].Hi; i++ {
			p := ps[i]
			t := time.Now()
			qp, err := mutation.NewUniform(s.nu, p)
			if err != nil {
				return err
			}
			op, err := baseOp.WithProcess(qp)
			if err != nil {
				return err
			}
			var opS *core.FmmpOperator
			if adaptive {
				if opS, err = baseOpS.WithProcess(qp); err != nil {
					return err
				}
			}
			a.pointBuild += since(t)
			start := cold
			if prev != nil {
				start = prev
				warm[i] = true
			}
			var x []float64
			if adaptive {
				if aworks[sl.ID()] == nil {
					aworks[sl.ID()] = core.NewAdaptiveWork(q.Dim())
				}
				t = time.Now()
				res, err := core.AdaptiveSolve(op, opS, core.AdaptiveOptions{
					Method: method, Tol: tol, PowerShift: core.ConservativeShift(qp, land),
					Start: start, Work: aworks[sl.ID()], State: &state,
				})
				a.solve += since(t)
				if err != nil {
					return fmt.Errorf("p = %g: %w", p, err)
				}
				a.matvecs += res.Iterations
				a.escalations += res.Escalations
				u.iters[i], u.methods[i] = res.Iterations, res.Method.String()
				x = res.Vector
			} else {
				if works[sl.ID()] == nil {
					works[sl.ID()] = core.NewPowerWork(q.Dim())
				}
				t = time.Now()
				res, err := core.PowerIteration(timedOp{op, a}, core.PowerOptions{
					Tol: tol, Start: start, Shift: core.ConservativeShift(qp, land),
					Work: works[sl.ID()],
				})
				a.solve += since(t)
				if err != nil {
					return fmt.Errorf("p = %g: %w", p, err)
				}
				a.matvecs += res.Iterations
				u.iters[i], u.methods[i] = res.Iterations, core.SolvePower.String()
				x = res.Vector
			}
			t = time.Now()
			if err := core.Concentrations(x); err != nil {
				return err
			}
			gamma, err := core.ClassConcentrations(s.nu, x)
			if err != nil {
				return err
			}
			a.post += since(t)
			u.gammas[i] = gamma
			prev = x
		}
		return nil
	})
	runWall := since(t)
	if err != nil {
		logf("traced sweep: %v", err)
		u.failed = n
	}
	l := &layers{wall: since(tw), chains: len(chains), batchRun: runWall}
	l.batchWorkers = min(workers, len(chains))
	w := 1 / float64(l.batchWorkers)
	l.addScaled(top, 1)
	for ci := range accs {
		l.addScaled(&accs[ci], w)
		l.applyThread += accs[ci].apply
		l.batchBusy += busy[ci]
	}
	l.batchSelf = runWall - l.batchBusy*w
	if adaptive {
		// AdaptiveSolve takes a concrete *FmmpOperator, so its applies
		// cannot be wrapped: charge matvecs × the measured per-call cost.
		l.applyComputed = true
		l.applyCalls = l.matvecs
		src, dst := device.AllocVector(baseOp.Dim()), device.AllocVector(baseOp.Dim())
		vec.Fill(src, 1/float64(len(src)))
		l.applyThread = float64(l.matvecs) * perCall(func() { baseOp.Apply(dst, src) })
		l.apply = l.applyThread * w
	}
	for i := range warm {
		if warm[i] {
			u.warm++
		}
	}
	return u, l, nil
}

// perCall returns the mean seconds of f over at least 3 calls and 50 ms.
func perCall(f func()) float64 {
	f() // warm caches
	calls := 0
	t := time.Now()
	for calls < 3 || time.Since(t) < 50*time.Millisecond {
		f()
		calls++
	}
	return since(t) / float64(calls)
}

// sink keeps the microbenchmark reductions alive.
var sink float64

// splitResult compares a serial (nil device) and a two-worker solve of
// the workload's first input through the wrapped operator.
type splitResult struct {
	ulps    float64 // |λ_w1 − λ_w2| in units in the last place
	speedup float64 // per-Apply time serial ÷ two workers
}

func split(w workload, seed uint64) (splitResult, error) {
	var land landscape.Landscape
	var q *mutation.Process
	var err error
	if s := w.solve; s != nil {
		if land, err = landscape.NewRandom(s.nu, s.c, s.sigma, s.landscapeSeeds(seed)[0]); err != nil {
			return splitResult{}, err
		}
		q, err = mutation.NewUniform(s.nu, s.p)
	} else {
		s := w.sweep
		if land, err = landscape.NewSinglePeak(s.nu, s.sigma, 1); err != nil {
			return splitResult{}, err
		}
		q, err = mutation.NewUniform(s.nu, s.grid(seed)[0])
	}
	if err != nil {
		return splitResult{}, err
	}
	var lambda, perApply [2]float64
	for k, dev := range []*device.Device{nil, device.New(2)} {
		op, err := core.NewFmmpOperator(q, land, core.Right, dev)
		if err != nil {
			return splitResult{}, err
		}
		a := &acc{}
		res, err := core.PowerIteration(timedOp{op, a}, core.PowerOptions{
			Tol: core.DefaultTolerance(land), Start: core.FitnessStart(land), Dev: dev,
			Shift: core.ConservativeShift(q, land),
		})
		if err != nil {
			return splitResult{}, fmt.Errorf("workers %d: %w", k+1, err)
		}
		lambda[k], perApply[k] = res.Lambda, a.apply/float64(a.applyCalls)
	}
	ulps := math.Abs(float64(int64(math.Float64bits(lambda[0])) - int64(math.Float64bits(lambda[1]))))
	return splitResult{ulps: ulps, speedup: perApply[0] / perApply[1]}, nil
}

// micro measures the BLAS-1 kernels, a device launch and a device
// allocation at the workload's vector length n. Bytes per call count each
// vector read or written once. The launch covers two chunks of the
// default 4096-thread grain, so it goes through the worker pool.
func micro(n int) map[string]metric {
	dev := device.New(2)
	x, y := dev.AllocVector(n), dev.AllocVector(n)
	for i := range x {
		x[i], y[i] = 1/float64(i+1), 1/float64(i+2)
	}
	gbps := func(bytes int, f func()) metric { return metric{float64(bytes) / perCall(f) / 1e9, "GB/s"} }
	return map[string]metric{
		"vec.dot_gbps":         gbps(16*n, func() { sink += vec.Dot(x, y) }),
		"vec.norm2_gbps":       gbps(8*n, func() { sink += vec.Norm2(x) }),
		"vec.axpy_gbps":        gbps(24*n, func() { vec.AXPY(1e-300, x, y) }),
		"device.dot_gbps":      gbps(16*n, func() { sink += dev.Dot(x, y) }),
		"device.norm2_gbps":    gbps(8*n, func() { sink += dev.Norm2(x) }),
		"device.residual_gbps": gbps(16*n, func() { sink += dev.ResidualNorm2(y, x, 0.5) }),
		"device.launch_us":     {1e6 * perCall(func() { dev.LaunchRange(2*4096, func(lo, hi int) {}) }), "us"},
		"device.alloc_s":       {perCall(func() { sink += dev.AllocVector(n)[n-1] }), "s"},
	}
}
