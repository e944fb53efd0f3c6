package harness

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

func sweepGrid(lo, hi float64, n int) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return ps
}

func requireIdentical(t *testing.T, tag string, a, b []ThresholdPoint) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d points", tag, len(a), len(b))
	}
	for i := range a {
		if a[i].P != b[i].P {
			t.Fatalf("%s: point %d: p %g vs %g", tag, i, a[i].P, b[i].P)
		}
		for k := range a[i].Gamma {
			if a[i].Gamma[k] != b[i].Gamma[k] {
				t.Fatalf("%s: point %d class %d: %v vs %v (not bit-identical)",
					tag, i, k, a[i].Gamma[k], b[i].Gamma[k])
			}
		}
	}
}

// The determinism contract of the batch engine: a sweep's results are
// bit-identical at every worker count, cold or warm.
func TestThresholdSweepFullBitIdenticalAcrossWorkers(t *testing.T) {
	const nu = 8
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	ps := sweepGrid(0.005, 0.12, 11)
	for _, warm := range []bool{false, true} {
		ref, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1, WarmStart: warm})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 32} {
			got, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: workers, WarmStart: warm})
			if err != nil {
				t.Fatalf("workers=%d warm=%v: %v", workers, warm, err)
			}
			requireIdentical(t, "full sweep", ref, got)
		}
	}
}

func TestThresholdSweepOptsBitIdenticalAcrossWorkers(t *testing.T) {
	const nu = 20
	l, err := landscape.NewSinglePeak(nu, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := sweepGrid(0.002, 0.09, 17)
	for _, warm := range []bool{false, true} {
		ref, stats, err := ThresholdSweepOpts(l, ps, SweepOptions{Workers: 1, WarmStart: warm})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Iterations) != len(ps) {
			t.Fatalf("stats cover %d of %d points", len(stats.Iterations), len(ps))
		}
		for _, workers := range []int{2, 5, 16} {
			got, _, err := ThresholdSweepOpts(l, ps, SweepOptions{Workers: workers, WarmStart: warm})
			if err != nil {
				t.Fatalf("workers=%d warm=%v: %v", workers, warm, err)
			}
			requireIdentical(t, "reduced sweep", ref, got)
		}
	}
}

// Warm-started solves must converge to the same eigenpair as cold ones —
// within tolerance, point by point — while saving iterations overall.
func TestWarmStartMatchesColdWithinTolerance(t *testing.T) {
	const nu = 9
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	// A monotone grid toward the threshold, where continuation pays off.
	ps := sweepGrid(0.01, 0.09, 12)
	cold, coldStats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1, WarmStart: true, ChainLen: len(ps)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		for k := range cold[i].Gamma {
			if d := math.Abs(cold[i].Gamma[k] - warm[i].Gamma[k]); d > 1e-8 {
				t.Errorf("p=%g class %d: |cold−warm| = %g", ps[i], k, d)
			}
		}
	}
	if w, c := warmStats.TotalIterations(), coldStats.TotalIterations(); w >= c {
		t.Errorf("warm sweep took %d iterations, cold took %d — continuation saved nothing", w, c)
	}
	if warmStats.WarmPoints() != len(ps)-1 {
		t.Errorf("%d of %d points warm-started, want %d", warmStats.WarmPoints(), len(ps), len(ps)-1)
	}
	if coldStats.WarmPoints() != 0 {
		t.Errorf("cold sweep reports %d warm points", coldStats.WarmPoints())
	}
}

// The legacy entry points must agree with the engine they now wrap.
func TestLegacySweepWrappersMatchOpts(t *testing.T) {
	const nu = 7
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.02)
	ps := sweepGrid(0.01, 0.08, 5)

	legacy, err := ThresholdSweep(l, ps)
	if err != nil {
		t.Fatal(err)
	}
	opts, _, err := ThresholdSweepOpts(l, ps, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "reduced wrapper", legacy, opts)

	legacyFull, err := ThresholdSweepFull(q, l, ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	optsFull, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "full wrapper", legacyFull, optsFull)
}

func TestLocateThresholdOptsMatchesBisection(t *testing.T) {
	const nu = 20
	l, err := landscape.NewSinglePeak(nu, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LocateThreshold(l, 0.001, 0.4, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := LocateThresholdOpts(l, 0.001, 0.4, 1e-4, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Different probe sequences may land on different points inside the
		// final bracket, but every answer is within tol of the transition.
		if math.Abs(got-want) > 2e-4 {
			t.Errorf("workers=%d: p_max = %g, bisection %g", workers, got, want)
		}
	}
	theory, err := TheoreticalThreshold(4, nu)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want-theory)/theory > 0.25 {
		t.Errorf("located %g far from first-order theory %g", want, theory)
	}
}

func TestThresholdSweepFullOptsWithDevice(t *testing.T) {
	const nu = 8
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	ps := sweepGrid(0.01, 0.06, 6)
	// The device's reduction tree has its own (deterministic) summation
	// order, so the bit-identity contract is per device configuration:
	// sweep-level concurrency must not change a single bit for a fixed
	// shared device.
	dev := device.New(4, device.WithGrain(16))
	ref, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: 1, WarmStart: true, Dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{Workers: workers, WarmStart: true, Dev: dev})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "device sweep", ref, got)
	}
}

func TestRunSweepBenchShort(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness exercised in long mode")
	}
	res, err := RunSweepBench(SweepBenchConfig{Nu: 8, Points: 6, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BitIdentical {
		t.Error("parallel sweeps deviated from serial")
	}
	if len(res.Variants) != 4 {
		t.Fatalf("%d variants, want 4", len(res.Variants))
	}
	if res.WarmIterReductionPct <= 0 {
		t.Errorf("warm start saved %.1f%% iterations, want > 0", res.WarmIterReductionPct)
	}
}

// The adaptive engine must honor the same determinism contract as the
// power path: with Method auto the gear selection, warm shifts, and
// results are chain-local, so sweeps stay bit-identical at every worker
// count — including across the critical window where the selector shifts
// gears.
func TestAdaptiveSweepBitIdenticalAcrossWorkers(t *testing.T) {
	const nu = 14
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	pc := 1 - math.Pow(2, -1/float64(nu))
	// A grid that crosses p_c. The cost model routes points to power or
	// Chebyshev by predicted cost; whatever it picks, the selector must
	// follow it exactly (barring escalations).
	ps := sweepGrid(0.6*pc, 1.2*pc, 8)
	for _, warm := range []bool{false, true} {
		ref, stats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{
			Workers: 1, WarmStart: warm, Method: core.SolveAuto,
		})
		if err != nil {
			t.Fatalf("warm=%v: %v", warm, err)
		}
		for i, m := range stats.Methods {
			if m == "" {
				t.Fatalf("warm=%v: point %d has no recorded method", warm, i)
			}
		}
		if stats.Escalations == 0 {
			for i, p := range ps {
				if want := plannedGear(t, l, p); stats.Methods[i] != want {
					t.Errorf("warm=%v: point %d ran %q, the cost model picks %q", warm, i, stats.Methods[i], want)
				}
			}
		} else {
			t.Errorf("warm=%v: %d escalations (%v); the probe-planned gears should all converge here",
				warm, stats.Escalations, stats.MethodCounts())
		}
		for _, workers := range []int{2, 3} {
			got, gstats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{
				Workers: workers, WarmStart: warm, Method: core.SolveAuto,
			})
			if err != nil {
				t.Fatalf("workers=%d warm=%v: %v", workers, warm, err)
			}
			requireIdentical(t, "adaptive sweep", ref, got)
			for i := range stats.Methods {
				if stats.Methods[i] != gstats.Methods[i] {
					t.Fatalf("workers=%d warm=%v: point %d method %q vs %q",
						workers, warm, i, stats.Methods[i], gstats.Methods[i])
				}
			}
			if stats.Escalations != gstats.Escalations {
				t.Errorf("workers=%d warm=%v: escalations %d vs %d",
					workers, warm, stats.Escalations, gstats.Escalations)
			}
		}
	}
}

// plannedGear is the auto selector's gear at p, rederived from a fresh
// probe: the cost model's choice (core.PlanGear) when the 24-step probe
// resolves the leading Ritz pair, shift-invert when it does not.
func plannedGear(t *testing.T, l landscape.Landscape, p float64) string {
	t.Helper()
	q := mutation.MustUniform(l.ChainLen(), p)
	opS, err := core.NewFmmpOperator(q, l, core.Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	theta0, theta1, err := core.RitzGap(opS, 24, nil, nil)
	if err != nil || !(theta0-theta1 > 1e-10*math.Abs(theta0)) {
		return core.SolveShiftInvert.String()
	}
	return core.PlanGear(theta0, theta1, core.ConservativeShift(q, l)).Gear.String()
}

// Inside the critical window the auto selector and a forced shift-invert
// sweep solve the same eigenproblem by (possibly) different routes; their
// concentration curves must agree to solver tolerance.
func TestAdaptiveSweepAutoMatchesForcedShiftInvert(t *testing.T) {
	const nu = 8
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	pc := 1 - math.Pow(2, -1/float64(nu))
	ps := sweepGrid(0.95*pc, 1.02*pc, 5)
	auto, _, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{
		Workers: 1, WarmStart: true, Method: core.SolveAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	forced, fstats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{
		Workers: 1, WarmStart: true, Method: core.SolveShiftInvert,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range auto {
		for k := range auto[i].Gamma {
			if d := math.Abs(auto[i].Gamma[k] - forced[i].Gamma[k]); d > 1e-8 {
				t.Errorf("p=%g class %d: |auto−shiftinvert| = %g", ps[i], k, d)
			}
		}
	}
	for i, m := range fstats.Methods {
		if m != "shiftinvert" {
			t.Errorf("forced sweep point %d recorded method %q", i, m)
		}
	}
}

// The reduced sweep maps non-power methods onto the RQI/LU shift-invert
// path; its curves must match the dense power path to solver tolerance and
// stay bit-identical across worker counts.
func TestReducedSweepShiftInvertMatchesPower(t *testing.T) {
	const nu = 20
	l, err := landscape.NewSinglePeak(nu, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := sweepGrid(0.002, 0.09, 13)
	power, _, err := ThresholdSweepOpts(l, ps, SweepOptions{Workers: 1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	si, stats, err := ThresholdSweepOpts(l, ps, SweepOptions{
		Workers: 1, WarmStart: true, Method: core.SolveShiftInvert,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range power {
		for k := range power[i].Gamma {
			if d := math.Abs(power[i].Gamma[k] - si[i].Gamma[k]); d > 1e-9 {
				t.Errorf("p=%g class %d: |power−shiftinvert| = %g", ps[i], k, d)
			}
		}
	}
	for i, m := range stats.Methods {
		if m != "shiftinvert" {
			t.Errorf("point %d recorded method %q, want shiftinvert", i, m)
		}
	}
	for _, workers := range []int{2, 5} {
		got, _, err := ThresholdSweepOpts(l, ps, SweepOptions{
			Workers: workers, WarmStart: true, Method: core.SolveShiftInvert,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireIdentical(t, "reduced shift-invert sweep", si, got)
	}
}

// LocateThresholdOpts must find the same transition whichever reduced
// solver evaluates the order parameter.
func TestLocateThresholdMethodAgreement(t *testing.T) {
	const nu = 20
	l, err := landscape.NewSinglePeak(nu, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	power, err := LocateThresholdOpts(l, 0.001, 0.4, 1e-4, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	si, err := LocateThresholdOpts(l, 0.001, 0.4, 1e-4, SweepOptions{Workers: 2, Method: core.SolveShiftInvert})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(power-si) > 2e-4 {
		t.Errorf("p_max: power %g vs shift-invert %g", power, si)
	}
}

func TestRunCriticalBenchShort(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness exercised in long mode")
	}
	// A small window crossing: ν = 12 keeps the test fast while still
	// exercising the grid layout, bit-identity check, and baseline capture.
	res, err := RunCriticalBench(CriticalBenchConfig{Nu: 12, Points: 5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BitIdentical {
		t.Error("parallel adaptive sweep deviated from serial")
	}
	if len(res.Variants) != 3 {
		t.Fatalf("%d variants, want 3", len(res.Variants))
	}
	if len(res.Grid) != 5 {
		t.Fatalf("%d grid points, want 5", len(res.Grid))
	}
	for i, pt := range res.Grid {
		if pt.Method == "" {
			t.Errorf("grid point %d has no method", i)
		}
		if pt.Iterations <= 0 {
			t.Errorf("grid point %d has no iteration count", i)
		}
	}
	if res.Grid[0].FracPC >= 1 || res.Grid[len(res.Grid)-1].FracPC <= 1 {
		t.Errorf("grid [%.3f, %.3f]·p_c does not cross the threshold",
			res.Grid[0].FracPC, res.Grid[len(res.Grid)-1].FracPC)
	}
}

// TestCriticalWindowIterationGate pins the deterministic cost of a warm
// auto sweep across p_c (ν = 14, 13 points from 0.90 to 1.08·p_c): the
// total and per-point maximum matvecs and the gear of every point. All
// three are pure functions of the inputs — the cost model's weights are
// constants, never timings — so they must be identical at every worker
// count.
func TestCriticalWindowIterationGate(t *testing.T) {
	const nu = 14
	l, err := landscape.NewSinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := mutation.MustUniform(nu, 0.01)
	pc := 1 - math.Pow(2, -1/float64(nu))
	ps := sweepGrid(0.90*pc, 1.08*pc, 13)
	const wantTotal, wantMax = 1645, 210
	wantGears := make([]string, len(ps))
	for i := range wantGears {
		wantGears[i] = "chebyshev"
	}
	for _, workers := range []int{1, 2, 3} {
		_, stats, err := ThresholdSweepFullOpts(q, l, ps, SweepOptions{
			Workers: workers, WarmStart: true, Method: core.SolveAuto,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		total, most := 0, 0
		for _, it := range stats.Iterations {
			total += it
			most = max(most, it)
		}
		if total != wantTotal || most != wantMax {
			t.Errorf("workers=%d: %d matvecs, %d at the worst point; want %d and %d (%v)",
				workers, total, most, wantTotal, wantMax, stats.Iterations)
		}
		for i, g := range stats.Methods {
			if g != wantGears[i] {
				t.Errorf("workers=%d: point %d ran %q, want %q", workers, i, g, wantGears[i])
			}
		}
	}
}
