package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/landscape"
	"repro/internal/mutation"
	"repro/internal/vec"
)

// criticalProblem returns a single-peak problem near its error threshold
// p_c = 1 − σ^(−1/ν), where the spectral gap is small and the Krylov gears
// earn their keep.
func criticalProblem(t *testing.T, nu int, frac float64) (*mutation.Process, landscape.Landscape, float64) {
	t.Helper()
	l, err := landscape.NewSinglePeak(nu, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(10, -1/float64(nu))
	p := frac * pc
	q := mutation.MustUniform(nu, p)
	return q, l, p
}

func referenceLambda(t *testing.T, q *mutation.Process, l landscape.Landscape) (float64, []float64) {
	t.Helper()
	op, err := NewFmmpOperator(q, l, Right, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PowerIteration(op, PowerOptions{
		Tol: 1e-12, MaxIter: 5000000, Start: FitnessStart(l),
		Shift: ConservativeShift(q, l),
	})
	if err != nil && !errors.Is(err, ErrStagnated) {
		t.Fatal(err)
	}
	return res.Lambda, res.Vector
}

func TestChebyshevMatchesPower(t *testing.T) {
	q, l, _ := criticalProblem(t, 8, 0.9)
	want, _ := referenceLambda(t, q, l)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	theta0, theta1, err := RitzGap(opS, 24, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ChebyshevIteration(opS, ChebyshevOptions{
		Tol: 1e-12, UpperEdge: theta1 + 0.5*(theta0-theta1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(res.Lambda-want) > 1e-9 {
		t.Fatalf("λ = %.15g, power reference %.15g", res.Lambda, want)
	}
	if res.Residual > 1e-12 {
		t.Fatalf("residual %g above tolerance", res.Residual)
	}
}

func TestChebyshevRejectsEmptyInterval(t *testing.T) {
	q, l, _ := criticalProblem(t, 6, 0.5)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	if _, err := ChebyshevIteration(opS, ChebyshevOptions{UpperEdge: 0}); err == nil {
		t.Fatal("expected an error for an empty damping interval")
	}
}

func TestShiftInvertMatchesPower(t *testing.T) {
	q, l, _ := criticalProblem(t, 8, 0.95)
	want, _ := referenceLambda(t, q, l)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	res, err := ShiftInvertLanczos(opS, ShiftInvertOptions{
		Tol: 1e-12, Shift: UpperBoundLambda(l),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(res.Lambda-want) > 1e-9 {
		t.Fatalf("λ = %.15g, power reference %.15g", res.Lambda, want)
	}
}

func TestShiftInvertDetectsBadShift(t *testing.T) {
	q, l, _ := criticalProblem(t, 6, 0.5)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	want, _ := referenceLambda(t, q, l)
	// A shift at half the dominant eigenvalue is inside the spectrum:
	// (µI − S) is indefinite and CG must flag it quickly.
	_, err := ShiftInvertLanczos(opS, ShiftInvertOptions{Tol: 1e-12, Shift: want / 2})
	if !errors.Is(err, ErrBadShift) {
		t.Fatalf("got %v, want ErrBadShift", err)
	}
}

func TestRitzGapInterlacesDenseSpectrum(t *testing.T) {
	q, l, _ := criticalProblem(t, 7, 0.8)
	vals := denseSpectrum(t, q, l)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	theta0, theta1, err := RitzGap(opS, 30, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cauchy interlacing: Ritz values are lower bounds (up to roundoff).
	if theta0 > vals[0]+1e-10 || theta1 > vals[1]+1e-10 {
		t.Fatalf("Ritz values (%.12g, %.12g) exceed eigenvalues (%.12g, %.12g)",
			theta0, theta1, vals[0], vals[1])
	}
	// And with a 30-step probe at ν=7 they should be tight.
	if math.Abs(theta0-vals[0]) > 1e-8 || math.Abs(theta1-vals[1]) > 1e-6 {
		t.Fatalf("probe not tight: (%.12g, %.12g) vs (%.12g, %.12g)",
			theta0, theta1, vals[0], vals[1])
	}
}

func TestAdaptiveSolveAutoFarFromThresholdPicksPower(t *testing.T) {
	q, l, _ := criticalProblem(t, 8, 0.4)
	opR, _ := NewFmmpOperator(q, l, Right, nil)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	res, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
		Method: SolveAuto, Tol: 1e-12, Start: FitnessStart(l),
		PowerShift: ConservativeShift(q, l),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != SolvePower {
		t.Fatalf("far from threshold the selector picked %v, want power", res.Method)
	}
	want, _ := referenceLambda(t, q, l)
	if math.Abs(res.Lambda-want) > 1e-9 {
		t.Fatalf("λ = %.15g, want %.15g", res.Lambda, want)
	}
}

func TestAdaptiveSolveGearsAgreeNearThreshold(t *testing.T) {
	q, l, _ := criticalProblem(t, 8, 0.98)
	want, wantVec := referenceLambda(t, q, l)
	opR, _ := NewFmmpOperator(q, l, Right, nil)
	opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
	for _, m := range []SolveMethod{SolveAuto, SolveChebyshev, SolveShiftInvert, SolveLanczos} {
		res, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
			Method: m, Tol: 1e-12, Start: FitnessStart(l),
			PowerShift: ConservativeShift(q, l),
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.Abs(res.Lambda-want) > 1e-8 {
			t.Fatalf("%v: λ = %.15g, want %.15g", m, res.Lambda, want)
		}
		// Right-form eigenvectors must agree up to sign (orientation fixes
		// the sign, so directly).
		var dot float64
		for i := range res.Vector {
			dot += res.Vector[i] * wantVec[i]
		}
		if dot < 1-1e-6 {
			t.Fatalf("%v: eigenvector overlap %g with power reference", m, dot)
		}
	}
}

func TestAdaptiveSolveWarmShiftChain(t *testing.T) {
	// Sweep three p values up to near-critical along one chain: the state
	// must carry λ₀ forward, and every point must converge with a bounded
	// matvec count.
	const nu = 8
	l, err := landscape.NewSinglePeak(nu, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(10, -1/float64(nu))
	work := NewAdaptiveWork(1 << nu)
	state := &MethodState{}
	var start []float64
	for _, frac := range []float64{0.90, 0.95, 0.99} {
		q := mutation.MustUniform(nu, frac*pc)
		opR, _ := NewFmmpOperator(q, l, Right, nil)
		opS, _ := NewFmmpOperator(q, l, Symmetric, nil)
		res, err := AdaptiveSolve(opR, opS, AdaptiveOptions{
			Method: SolveAuto, Tol: 1e-11, Start: start,
			PowerShift: ConservativeShift(q, l), Work: work, State: state,
		})
		if err != nil {
			t.Fatalf("p = %g·p_c: %v", frac, err)
		}
		if !state.HavePrev || state.PrevLambda != res.Lambda {
			t.Fatalf("state not updated at p = %g·p_c", frac)
		}
		if res.Iterations > 100000 {
			t.Fatalf("p = %g·p_c: unbounded solve (%d matvecs)", frac, res.Iterations)
		}
		want, _ := referenceLambda(t, q, l)
		if math.Abs(res.Lambda-want) > 1e-8 {
			t.Fatalf("p = %g·p_c: λ = %.15g, want %.15g", frac, res.Lambda, want)
		}
		start = res.Vector // continuation: aliases work.Power's iterate
	}
}

func TestParseSolveMethod(t *testing.T) {
	cases := []struct {
		in   string
		want SolveMethod
		ok   bool
	}{
		{"", SolvePower, true},
		{"power", SolvePower, true},
		{"auto", SolveAuto, true},
		{"chebyshev", SolveChebyshev, true},
		{"cheb", SolveChebyshev, true},
		{"shiftinvert", SolveShiftInvert, true},
		{"shift-invert", SolveShiftInvert, true},
		{"shift_invert", SolveShiftInvert, true},
		{"lanczos", SolveLanczos, true},
		{"newton", SolvePower, false},
	}
	for _, c := range cases {
		got, err := ParseSolveMethod(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseSolveMethod(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseSolveMethod(%q) accepted", c.in)
		}
	}
	for _, m := range []SolveMethod{SolvePower, SolveAuto, SolveChebyshev, SolveShiftInvert, SolveLanczos} {
		back, err := ParseSolveMethod(m.String())
		if err != nil || back != m {
			t.Errorf("round-trip %v → %q → %v, %v", m, m.String(), back, err)
		}
	}
}

// The adaptive gears move between the Right and Symmetric forms with the
// operator's √F diagonal; both directions must equal ConvertEigenvector
// followed by the same normalization, bit for bit.
func TestAdaptiveConversionsMatchConvertEigenvector(t *testing.T) {
	const nu = 10
	l, err := landscape.NewRandom(nu, 5, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	opS, err := NewFmmpOperator(mutation.MustUniform(nu, 0.01), l, Symmetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	work := NewAdaptiveWork(opS.Dim())
	normalized := func(x []float64, from, to Formulation) []float64 {
		x = append([]float64(nil), x...)
		if err := ConvertEigenvector(x, from, to, l); err != nil {
			t.Fatal(err)
		}
		vec.Scale(x, 1/vec.Norm2(x))
		return x
	}
	start := FitnessStart(l)
	for i := range start {
		start[i] *= 1 + float64(i%7)/3 // a start that is not F itself
	}
	sym := work.symStart(opS, start)
	requireBits(t, "Right → Symmetric", sym, normalized(start, Right, Symmetric))
	var res AdaptiveResult
	if err := acceptSymmetric(&res, work, opS, sym); err != nil {
		t.Fatal(err)
	}
	want := normalized(sym, Symmetric, Right)
	orientPositive(want)
	requireBits(t, "Symmetric → Right", res.Vector, want)
}

func requireBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", tag, i, got[i], want[i])
		}
	}
}
