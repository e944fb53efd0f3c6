package core

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

// Contracts of the fused power step: three passes over N per iteration
// (butterflies, pass A, pass B) and no allocation on a device either.
// Bit-identity across worker counts is checked at the facade.

// devicePowerSetup builds a ν = 16 single-peak Right-form operator running
// on dev, large enough that a 2-worker Device really splits every launch.
func devicePowerSetup(t *testing.T, dev *device.Device) (*FmmpOperator, PowerOptions) {
	t.Helper()
	const nu = 16
	q := mutation.MustUniform(nu, 0.01)
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewFmmpOperator(q, l, Right, dev)
	if err != nil {
		t.Fatal(err)
	}
	return op, PowerOptions{Tol: 1e-10, Shift: ConservativeShift(q, l), Start: FitnessStart(l), Dev: dev}
}

func TestPowerIterationOnDeviceDoesNotAllocate(t *testing.T) {
	dev := device.New(2)
	op, opts := devicePowerSetup(t, dev)
	opts.Work = NewPowerWork(op.Dim())
	// Warm up once so the launch free lists and the partial buffer settle.
	if _, err := PowerIteration(op, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := PowerIteration(op, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Work-backed PowerIteration on a 2-worker Device allocates %.0f objects per solve", allocs)
	}
}

// vectorLaunches counts the non-butterfly launches of dev: range launches
// that are not stage groups, plus reductions.
func vectorLaunches(s device.Stats) int64 {
	return s.Launches - s.StageLaunches + s.ReduceLaunches
}

func TestPowerStepLaunchCount(t *testing.T) {
	dev := device.New(2)
	op, opts := devicePowerSetup(t, dev)

	// The operator alone: stage-group launches only, so the F prescale
	// rides in the first tile launch instead of a Mul launch of its own.
	w := make([]float64, op.Dim())
	dev.ResetStats()
	op.Apply(w, opts.Start)
	if s := dev.Stats(); vectorLaunches(s) != 0 || s.StageLaunches == 0 {
		t.Fatalf("Apply made %d vector launches and %d stage launches, want 0 and > 0", vectorLaunches(s), s.StageLaunches)
	}
	perApply := dev.Stats().StageLaunches

	// Fixed iteration counts (no convergence, no stall exit) isolate the
	// per-iteration cost from the solve's set-up passes.
	opts.Tol, opts.StallChecks = 1e-300, -1
	run := func(iters int) device.Stats {
		opts.MaxIter = iters
		dev.ResetStats()
		if _, err := PowerIteration(op, opts); err == nil {
			t.Fatal("solve converged at tolerance 1e-300")
		}
		return dev.Stats()
	}
	a, b := run(10), run(30)
	if got := (vectorLaunches(b) - vectorLaunches(a)) / 20; got > 2 {
		t.Errorf("%d vector launches per iteration outside Apply, want ≤ 2", got)
	}
	if got := (b.StageLaunches - a.StageLaunches) / 20; got != perApply {
		t.Errorf("%d stage launches per iteration, want %d (one Apply)", got, perApply)
	}
}

// TestPowerWorkTracksSwappedIterate pins the warm-start aliasing contract
// through the buffer swap: the returned vector is Work's iterate, so a
// follow-up solve started from it copies onto itself.
func TestPowerWorkTracksSwappedIterate(t *testing.T) {
	op, opts := devicePowerSetup(t, nil)
	opts.Work = NewPowerWork(op.Dim())
	first, err := PowerIteration(op, opts)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := opts.Work.vectors(op.Dim())
	if &x[0] != &first.Vector[0] {
		t.Fatal("returned vector does not alias the Work iterate")
	}
	opts.Start = first.Vector
	second, err := PowerIteration(op, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Iterations > 2 || math.Abs(second.Lambda-first.Lambda) > 1e-12 {
		t.Errorf("warm restart from the returned vector took %d iterations (λ %v vs %v)",
			second.Iterations, second.Lambda, first.Lambda)
	}
}
