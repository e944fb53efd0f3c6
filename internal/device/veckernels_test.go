package device

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/vec"
)

// refFourLane reproduces the documented reduction order of one chunk —
// lane ℓ sums elements ℓ, ℓ+4, …, lanes combine as ((s0+s1)+s2)+s3, tail
// folds on in index order — for an arbitrary element function. The kernel
// implementations must match it BIT-exactly.
func refFourLane(n int, f func(k int) float64) float64 {
	var lane [4]float64
	k := 0
	for ; k+4 <= n; k += 4 {
		for l := 0; l < 4; l++ {
			lane[l] += f(k + l)
		}
	}
	s := ((lane[0] + lane[1]) + lane[2]) + lane[3]
	for ; k < n; k++ {
		s += f(k)
	}
	return s
}

func TestChunkKernelsMatchDocumentedOrder(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 1023, 4096} {
		x, y := randVec(r, n), randVec(r, n)
		if got, want := dotChunk(x, y), refFourLane(n, func(k int) float64 { return x[k] * y[k] }); got != want {
			t.Errorf("n=%d: dotChunk = %v, want %v (order contract)", n, got, want)
		}
		mu, lambda, sc := 0.37, 0.81, 1.25
		wp := func(k int) float64 { return y[k] - mu*x[k] }
		dot, sq := shiftDotChunk(x, y, mu)
		if want := refFourLane(n, func(k int) float64 { return x[k] * wp(k) }); dot != want {
			t.Errorf("n=%d: shiftDotChunk dot = %v, want %v", n, dot, want)
		}
		if want := refFourLane(n, func(k int) float64 { return wp(k) * wp(k) }); sq != want {
			t.Errorf("n=%d: shiftDotChunk sum of squares = %v, want %v", n, sq, want)
		}
		yy := append([]float64(nil), y...)
		res := residScaleChunk(x, yy, mu, lambda, sc)
		if want := refFourLane(n, func(k int) float64 {
			r := wp(k) - lambda*x[k]
			return r * r
		}); res != want {
			t.Errorf("n=%d: residScaleChunk = %v, want %v", n, res, want)
		}
		for k := range yy {
			if yy[k] != wp(k)*sc {
				t.Fatalf("n=%d: residScaleChunk wrote %v at %d, want %v", n, yy[k], k, wp(k)*sc)
			}
		}
	}
}

func TestReductionsBitIdenticalAcrossRuns(t *testing.T) {
	r := rng.New(11)
	n := 100003 // odd: exercises chunk tails
	x, y := randVec(r, n), randVec(r, n)
	for name, d := range devices() {
		dot, n2 := d.Dot(x, y), d.Norm2(x)
		res := d.ResidualNorm2(x, y, 0.4)
		for run := 0; run < 20; run++ {
			if d.Dot(x, y) != dot || d.Norm2(x) != n2 || d.ResidualNorm2(x, y, 0.4) != res {
				t.Fatalf("%s: reduction not bit-identical across runs (run %d)", name, run)
			}
		}
	}
}

func TestReductionsCloseToSerialVec(t *testing.T) {
	r := rng.New(13)
	n := 1 << 16
	x, y := randVec(r, n), randVec(r, n)
	for name, d := range devices() {
		if got, want := d.Dot(x, y), vec.Dot(x, y); math.Abs(got-want) > 1e-9*math.Abs(want)+1e-12 {
			t.Errorf("%s: Dot = %v, want ≈ %v", name, got, want)
		}
		if got, want := d.Norm2(x), vec.Norm2(x); math.Abs(got-want) > 1e-9*want+1e-12 {
			t.Errorf("%s: Norm2 = %v, want ≈ %v", name, got, want)
		}
		want := 0.0
		for i := range x {
			rr := x[i] - 0.25*y[i]
			want += rr * rr
		}
		want = math.Sqrt(want)
		if got := d.ResidualNorm2(x, y, 0.25); math.Abs(got-want) > 1e-9*want+1e-12 {
			t.Errorf("%s: ResidualNorm2 = %v, want ≈ %v", name, got, want)
		}
	}
}

func TestElementwiseKernelsBitIdenticalToVec(t *testing.T) {
	r := rng.New(17)
	for _, n := range []int{0, 1, 3, 4, 5, 1000, 99991} {
		x, y := randVec(r, n), randVec(r, n)
		for name, d := range devices() {
			xs, ys := append([]float64(nil), x...), append([]float64(nil), y...)
			xd, yd := append([]float64(nil), x...), append([]float64(nil), y...)

			vec.AXPY(1.75, xs, ys)
			d.AXPY(1.75, xd, yd)
			if n > 0 && vec.DistInf(ys, yd) != 0 {
				t.Fatalf("%s n=%d: AXPY not bit-identical to vec.AXPY", name, n)
			}

			vec.Scale(xs, 0.3)
			d.Scale(xd, 0.3)
			if n > 0 && vec.DistInf(xs, xd) != 0 {
				t.Fatalf("%s n=%d: Scale not bit-identical to vec.Scale", name, n)
			}

			ms, md := make([]float64, n), make([]float64, n)
			vec.Mul(ms, xs, ys)
			d.Mul(md, xd, yd)
			if n > 0 && vec.DistInf(ms, md) != 0 {
				t.Fatalf("%s n=%d: Mul not bit-identical to vec.Mul", name, n)
			}
		}
	}
}

// TestReductionsBitIdenticalAcrossWorkers pins the fixed-block contract:
// the nil (inline) Device and every worker count and grain give the same
// bits, because blocks — not chunks — fix the summation order.
func TestReductionsBitIdenticalAcrossWorkers(t *testing.T) {
	r := rng.New(19)
	for _, n := range []int{1, 4095, 4096, 4097, 3*reduceBlock + 5, 1 << 16, 100003} {
		x, y := randVec(r, n), randVec(r, n)
		var nilDev *Device
		wantDot, wantN2, wantRes := nilDev.Dot(x, y), nilDev.Norm2(x), nilDev.ResidualNorm2(x, y, 0.4)
		wantA, wantB := nilDev.ShiftDotNorm(x, y, 0.3)
		for _, d := range []*Device{New(1), New(2), New(3), New(4, WithGrain(1)), New(7, WithGrain(13))} {
			gotA, gotB := d.ShiftDotNorm(x, y, 0.3)
			if d.Dot(x, y) != wantDot || d.Norm2(x) != wantN2 || d.ResidualNorm2(x, y, 0.4) != wantRes ||
				gotA != wantA || gotB != wantB {
				t.Fatalf("n=%d %v: reduction differs from the inline Device", n, d)
			}
		}
	}
}

// TestFusedPowerPassesMatchUnfused checks passes A and B against the
// unfused sequence they replace — store w′ = w − µx, then Dot, Norm2,
// ResidualNorm2 and a scale — bit for bit.
func TestFusedPowerPassesMatchUnfused(t *testing.T) {
	r := rng.New(23)
	const mu = 0.37
	for _, n := range []int{1, 7, 4096, 3*reduceBlock + 3} {
		x, w := randVec(r, n), randVec(r, n)
		for _, d := range []*Device{nil, New(2, WithGrain(8))} {
			wp := append([]float64(nil), w...)
			d.AXPY(-mu, x, wp)
			dot, nrm := d.ShiftDotNorm(x, w, mu)
			if dot != d.Dot(x, wp) || nrm != d.Norm2(wp) {
				t.Fatalf("n=%d: pass A = (%v, %v), unfused (%v, %v)", n, dot, nrm, d.Dot(x, wp), d.Norm2(wp))
			}
			got := append([]float64(nil), w...)
			res := d.ResidualScale(x, got, mu, dot, 1/nrm)
			if want := d.ResidualNorm2(wp, x, dot); res != want {
				t.Fatalf("n=%d: pass B residual %v, unfused %v", n, res, want)
			}
			d.Scale(wp, 1/nrm)
			if vec.DistInf(got, wp) != 0 {
				t.Fatalf("n=%d: pass B iterate differs from the unfused rescale", n)
			}
		}
	}
}

func TestVectorKernelsDoNotAllocate(t *testing.T) {
	const n = 1 << 16
	r := rng.New(29)
	x, y := randVec(r, n), randVec(r, n)
	d := New(2)
	d.Dot(x, y) // the first reduction sizes the partial buffer
	var sink float64
	for name, f := range map[string]func(){
		"Dot":           func() { sink += d.Dot(x, y) },
		"AXPY":          func() { d.AXPY(1e-300, x, y) },
		"Norm2":         func() { sink += d.Norm2(x) },
		"ShiftDotNorm":  func() { a, b := d.ShiftDotNorm(x, y, 0.5); sink += a + b },
		"ResidualScale": func() { sink += d.ResidualScale(x, y, 0, 0, 1) },
		"Mul":           func() { d.Mul(y, x, y) },
	} {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("2-worker %s allocates %.0f objects per call", name, allocs)
		}
	}
	_ = sink
}

// TestNorm2OverflowGuard covers the fallback of the sum-of-squares norms:
// entries whose squares overflow or underflow (or are subnormal) must still
// give the scaled norm's answer, and the zero vector 0.
func TestNorm2OverflowGuard(t *testing.T) {
	sub := math.SmallestNonzeroFloat64 * 3
	cases := []struct {
		name string
		x    []float64
		want float64
	}{
		{"huge", []float64{3e200, -4e200}, 5e200},
		{"tiny", []float64{3e-200, 4e-200}, 5e-200},
		{"subnormal", []float64{3 * sub, 4 * sub}, 5 * sub},
		{"zero", make([]float64, 9), 0},
		{"mixed", []float64{1e200, 1e-200}, 1e200},
	}
	for _, c := range cases {
		for _, d := range []*Device{nil, New(2, WithGrain(1))} {
			if got := d.Norm2(c.x); math.Abs(got-c.want) > 1e-15*c.want {
				t.Errorf("%s: Device Norm2 = %v, want %v", c.name, got, c.want)
			}
			zero := make([]float64, len(c.x))
			if _, got := d.ShiftDotNorm(zero, c.x, 0.5); math.Abs(got-c.want) > 1e-15*c.want {
				t.Errorf("%s: ShiftDotNorm norm = %v, want %v", c.name, got, c.want)
			}
		}
	}
}

// The fused Chebyshev kernels must equal the pass sequence they replace —
// Mul by the diagonal, the recurrence map with every product rounded, and
// a Norm2 pass — bit for bit, with and without the diagonal, on every
// Device (and the inline nil Device).
func TestChebyshevKernelsMatchUnfusedPasses(t *testing.T) {
	r := rng.New(17)
	n := 3*reduceBlock + 7 // several blocks plus a tail
	x, w, z := randVec(r, n), randVec(r, n), randVec(r, n)
	f := make([]float64, n)
	for i := range f {
		f[i] = 0.5 + r.Float64()
	}
	const c, s = 0.7, 1.9
	devs := devices()
	devs["nil"] = nil
	for _, diag := range [][]float64{f, nil} {
		// The unfused reference on the inline Device.
		wf := append([]float64(nil), w...)
		if diag != nil {
			(*Device)(nil).Mul(wf, wf, diag)
		}
		stepRef := append([]float64(nil), x...)
		for i := range stepRef {
			stepRef[i] = float64(s*float64(wf[i]-float64(c*z[i]))) - stepRef[i]
		}
		normRef := (*Device)(nil).Norm2(stepRef)
		startRef := make([]float64, n)
		for i := range startRef {
			startRef[i] = float64(wf[i] - float64(c*x[i]))
		}
		(*Device)(nil).Scale(startRef, s)

		for name, d := range devs {
			got := append([]float64(nil), x...)
			if m := d.ChebyshevStep(got, w, z, diag, c, s); m != normRef {
				t.Errorf("%s (diag %v): ChebyshevStep norm %v, want %v", name, diag != nil, m, normRef)
			}
			start := make([]float64, n)
			d.ChebyshevStart(start, w, x, diag, c, s)
			for i := range got {
				if got[i] != stepRef[i] {
					t.Fatalf("%s (diag %v): ChebyshevStep element %d = %v, want %v", name, diag != nil, i, got[i], stepRef[i])
				}
				if start[i] != startRef[i] {
					t.Fatalf("%s (diag %v): ChebyshevStart element %d = %v, want %v", name, diag != nil, i, start[i], startRef[i])
				}
			}
		}
	}
}
