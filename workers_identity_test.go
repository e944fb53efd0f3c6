package quasispecies

import (
	"math"
	"testing"
)

// Worker-count independence of the facade: every vector reduction runs on
// fixed blocks, so -workers changes speed, never bits.

func TestSolveBitIdenticalAcrossWorkers(t *testing.T) {
	l, err := RandomLandscape(16, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := UniformMutation(16, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Solution
	for w := 1; w <= 4; w++ {
		mo, err := New(m, l, WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := mo.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = sol
			continue
		}
		if math.Float64bits(sol.Lambda) != math.Float64bits(ref.Lambda) || sol.Iterations != ref.Iterations {
			t.Fatalf("workers %d: λ %v in %d iterations, workers 1: %v in %d",
				w, sol.Lambda, sol.Iterations, ref.Lambda, ref.Iterations)
		}
		requireSameBits(t, "Γ", w, sol.Gamma, ref.Gamma)
		requireSameBits(t, "concentrations", w, sol.Concentrations, ref.Concentrations)
	}
}

func TestAutoSweepBitIdenticalAcrossWorkers(t *testing.T) {
	const nu = 14
	l, err := SinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(2, -1.0/nu)
	var ps []float64
	for i := 0; i < 8; i++ {
		ps = append(ps, (0.90+0.18*float64(i)/7)*pc)
	}
	var ref []ThresholdPoint
	for w := 1; w <= 4; w++ {
		pts, err := ThresholdCurveFullWith(l, ps, SweepOptions{Workers: w, WarmStart: true, Method: "auto"})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = pts
			continue
		}
		for i := range pts {
			requireSameBits(t, "Γ", w, pts[i].Gamma, ref[i].Gamma)
		}
	}
}

// TestWarmSweepNu18GridOffsetsConverge is the regression for a ν = 18
// single-peak warm power sweep (16 points over 0.50–0.94 p_c) whose grid,
// shifted by 1.0, 1.1 or 1.3 × 1e-4·p_c, used to stop with ErrStagnated at
// one point (residual ≈ 1.1 × the default tolerance), failing the whole
// sweep. Tolerance, grid and stall guard are the defaults.
func TestWarmSweepNu18GridOffsetsConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("three ν = 18 sweeps")
	}
	const nu = 18
	l, err := SinglePeak(nu, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := 1 - math.Pow(2, -1.0/nu)
	for _, off := range []float64{1.0e-4, 1.1e-4, 1.3e-4} {
		ps := make([]float64, 16)
		for i := range ps {
			ps[i] = (0.50 + 0.44*float64(i)/15 + off) * pc
		}
		if _, err := ThresholdCurveFullWith(l, ps, SweepOptions{Workers: 1, WarmStart: true}); err != nil {
			t.Errorf("offset %g·p_c: %v", off, err)
		}
	}
}

func requireSameBits(t *testing.T, what string, workers int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("workers %d: %s has %d entries, workers 1 has %d", workers, what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("workers %d: %s[%d] = %v, workers 1 gives %v", workers, what, i, got[i], want[i])
		}
	}
}
