package core

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

// Contracts of the fused Chebyshev step: a recurrence matvec is the
// butterflies plus one vector pass, its result is bit-identical to the
// path that applies the √F scale as a pass of its own, and a Work-backed
// solve allocates nothing. The device kernels themselves are checked
// against the explicitly rounded pass sequence (Mul, recurrence map,
// Norm2) in internal/device.

// opaque hides an operator's concrete type, so ChebyshevIteration applies
// it in full — butterflies, then the √F scale as a pass of its own — and
// runs the recurrence kernel without a diagonal on the complete product.
type opaque struct{ Operator }

// deviceChebSetup builds a ν = 16 single-peak Symmetric operator at
// frac·p_c running on dev, with the probe's safe filter edge.
func deviceChebSetup(t *testing.T, dev *device.Device, frac float64) (*FmmpOperator, ChebyshevOptions) {
	t.Helper()
	const nu = 16
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, frac*(1-math.Pow(2, -1.0/nu)))
	op, err := NewFmmpOperator(q, l, Symmetric, dev)
	if err != nil {
		t.Fatal(err)
	}
	theta0, theta1, err := RitzGap(op, 24, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := FitnessStart(l)
	if err := ConvertEigenvector(start, Right, Symmetric, l); err != nil {
		t.Fatal(err)
	}
	return op, ChebyshevOptions{
		Tol: DefaultTolerance(l), UpperEdge: chebUpperEdge(theta0, theta1),
		Start: start, Dev: dev,
	}
}

func TestChebyshevFusedMatchesUnfused(t *testing.T) {
	var ref ChebyshevResult
	for i, dev := range []*device.Device{nil, device.New(2)} {
		op, opts := deviceChebSetup(t, dev, 0.98)
		fused, err := ChebyshevIteration(op, opts)
		if err != nil {
			t.Fatal(err)
		}
		unfused, err := ChebyshevIteration(opaque{op}, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCheb(t, "fused vs unfused", fused, unfused)
		if i == 0 {
			ref = fused
		} else {
			requireSameCheb(t, "serial vs 2 workers", ref, fused)
		}
	}
}

// A damping interval far below θ₀ grows the iterate by about 4θ₀/b per
// recurrence matvec, so each restart passes the 1e100 rescale guard. The
// rescaled solve must still find the dominant pair, and the fused and
// generic paths must still agree bit for bit.
func TestChebyshevRescaleGuard(t *testing.T) {
	dev := device.New(2)
	op, opts := deviceChebSetup(t, dev, 0.5)
	ref, err := ChebyshevIteration(op, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.UpperEdge = 1e-4 * ref.Lambda
	dev.ResetStats()
	got, err := ChebyshevIteration(op, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Without a rescale: the start's Norm2 and Scale, and per restart the
	// start step, deg − 1 fused steps, the Scale, the apply's Mul, the Dot
	// and the residual. Each rescale adds two Scales.
	const deg = 30
	plain := int64(2 + got.Restarts*(deg+4))
	if extra := vectorLaunches(dev.Stats()) - plain; extra < int64(2*got.Restarts) {
		t.Errorf("%d vector launches beyond the %d of %d unrescaled restarts; the rescale guard did not fire every restart",
			extra, plain, got.Restarts)
	}
	if d := math.Abs(got.Lambda - ref.Lambda); d > 1e-12*ref.Lambda {
		t.Errorf("rescaled solve λ = %v, want %v", got.Lambda, ref.Lambda)
	}
	generic, err := ChebyshevIteration(opaque{op}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCheb(t, "rescaled fused vs generic", got, generic)
}

func requireSameCheb(t *testing.T, tag string, a, b ChebyshevResult) {
	t.Helper()
	if a.MatVecs != b.MatVecs || a.Lambda != b.Lambda || a.Residual != b.Residual {
		t.Fatalf("%s: (matvecs %d, λ %v, residual %v) vs (%d, %v, %v)",
			tag, a.MatVecs, a.Lambda, a.Residual, b.MatVecs, b.Lambda, b.Residual)
	}
	for i := range a.Vector {
		if a.Vector[i] != b.Vector[i] {
			t.Fatalf("%s: vector element %d: %v vs %v (not bit-identical)", tag, i, a.Vector[i], b.Vector[i])
		}
	}
}

func TestChebyshevStepLaunchCount(t *testing.T) {
	dev := device.New(2)
	op, opts := deviceChebSetup(t, dev, 0.98)

	// The full Symmetric apply: the butterflies plus one Mul launch.
	w := make([]float64, op.Dim())
	dev.ResetStats()
	op.Apply(w, opts.Start)
	perApply := dev.Stats().StageLaunches
	if perApply == 0 {
		t.Fatal("Apply made no stage launches")
	}

	// One long restart truncated by the matvec budget: the two runs differ
	// only in their number of recurrence steps.
	opts.Degree, opts.Tol, opts.StallRestarts = 1000, 1e-300, -1
	run := func(matvecs int) device.Stats {
		opts.MaxMatVecs = matvecs
		dev.ResetStats()
		if _, err := ChebyshevIteration(op, opts); err == nil {
			t.Fatal("solve converged at tolerance 1e-300")
		}
		return dev.Stats()
	}
	a, b := run(20), run(60)
	if got := (vectorLaunches(b) - vectorLaunches(a)) / 40; got != 1 {
		t.Errorf("%d vector launches per recurrence matvec outside the butterflies, want 1", got)
	}
	if got := (b.StageLaunches - a.StageLaunches) / 40; got != perApply {
		t.Errorf("%d stage launches per recurrence matvec, want %d (one apply)", got, perApply)
	}
}

func TestChebyshevIterationOnDeviceDoesNotAllocate(t *testing.T) {
	dev := device.New(2)
	op, opts := deviceChebSetup(t, dev, 0.98)
	opts.Work = NewChebyshevWork(op.Dim())
	// Warm up once so the launch free lists and the partial buffer settle.
	if _, err := ChebyshevIteration(op, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ChebyshevIteration(op, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Work-backed ChebyshevIteration on a 2-worker Device allocates %.0f objects per solve", allocs)
	}
}

func TestPlanGearComparesPredictedCosts(t *testing.T) {
	cases := []struct {
		name                 string
		theta0, theta1, mu   float64
		want                 SolveMethod
		wantPower, wantCheby bool // whether each prediction exists
	}{
		// ν = 8, σ = 10 at 0.4·p_c: a wide gap, power in 15 steps.
		{"far from p_c", 4.353439326, 0.9950703529, 0.1676, SolvePower, true, true},
		// ν = 16, σ = 2 at 0.3·p_c: 22 power steps against one 31-matvec
		// restart, 336 against 490 streams.
		{"wide gap, one restart", 1.6339698, 0.99999593, 0.66214, SolvePower, true, true},
		// ν = 16, σ = 2 at 1.05·p_c: rate 0.99, thousands of power steps.
		{"critical window", 1.005135599, 0.9986664609, 0.2249, SolveChebyshev, true, true},
		// No gap: neither gear has a prediction; Chebyshev's stall guard escalates.
		{"degenerate pair", 1, 1, 0, SolveChebyshev, false, false},
		// A negative filter edge has no Chebyshev prediction.
		{"edge below zero", 1, -3, 0, SolveChebyshev, false, false},
	}
	for _, c := range cases {
		plan := PlanGear(c.theta0, c.theta1, c.mu)
		if plan.Gear != c.want {
			t.Errorf("%s: gear %v, want %v (%+v)", c.name, plan.Gear, c.want, plan)
		}
		if (plan.PowerMatVecs > 0) != c.wantPower || (plan.ChebMatVecs > 0) != c.wantCheby {
			t.Errorf("%s: predictions %+v", c.name, plan)
		}
		if plan.PowerMatVecs > 0 && plan.ChebMatVecs > 0 {
			cheaper := SolveChebyshev
			if powerCost(plan.PowerMatVecs) <= chebCost(plan.ChebMatVecs) {
				cheaper = SolvePower
			}
			if plan.Gear != cheaper {
				t.Errorf("%s: gear %v is not the cheaper prediction (%+v)", c.name, plan.Gear, plan)
			}
		}
		if plan.ChebMatVecs%(chebDegree+1) != 0 {
			t.Errorf("%s: %d Chebyshev matvecs are not whole restarts", c.name, plan.ChebMatVecs)
		}
	}
	// A shift at or above θ₁ is ignored, like the power gear's rate model.
	if a, b := PlanGear(2, 1, 1), PlanGear(2, 1, 0); a != b {
		t.Errorf("shift µ = θ₁ changed the plan: %+v vs %+v", a, b)
	}
}
