package device

import (
	"math"

	"repro/internal/vec"
)

// This file provides the BLAS-1 kernels of the solvers — the paper notes
// (Section 4) that vector summation parallelizes well enough that it has
// "almost no influence on the overall execution time". They are the ONE
// vector-kernel path: every method accepts a nil *Device, which runs the
// same block loop inline, so serial and parallel solves share every
// rounding decision. Each body is a bounds-check-eliminated loop unrolled
// 4-wide (the kernel floor, DESIGN.md §5.6), and a launch allocates
// nothing: operands travel by value in the pooled launch record (vecArgs),
// block partials land in a buffer each Device allocates once.
//
// SUMMATION ORDER (the reduction contract): a reduction over [0, n) is
// split into FIXED blocks [b·reduceBlock, (b+1)·reduceBlock) — the last
// one possibly shorter — whatever the worker count. Within a block,
// accumulator lane ℓ ∈ {0,1,2,3} sums elements lo+ℓ, lo+ℓ+4, …, the lanes
// combine as ((s0+s1)+s2)+s3, and the ≤ 3 tail elements fold onto that in
// index order. Block partials are added in ascending block order starting
// from 0. Parallel launches hand out whole blocks, so the result is a pure
// function of (operands, n): bit-identical across runs, schedules AND
// worker counts, including the nil (inline) Device. It differs from a
// strict serial left fold by the usual O(ε·Σ|xᵢyᵢ|) regrouping error, which
// the solver tolerances (≥ 1e-12) absorb.

// reduceBlock is the fixed reduction block length (32 KiB of float64s: one
// L1-sized slab, and the default dispatch grain).
const reduceBlock = 4096

// vecOp selects the body of a vector kernel.
type vecOp uint8

const (
	opDot        vecOp = iota // Σ x·y
	opShiftDot                // Σ x·w′ and Σ w′², w′ = y − a·x
	opResidScale              // Σ (w′ − b·x)², and y ← c·w′, w′ = y − a·x
	opChebStep                // Σ x′², and x ← x′ = b·(f⊙y − a·z) − x
	opScale                   // x ← a·x (elementwise from here on)
	opAXPBY                   // y ← a·x + b·y
	opCopy                    // z ← x
	opMul                     // z ← x ⊙ y
	opChebStart               // z ← b·(f⊙y − a·x)
)

// vecArgs is one vector-kernel invocation: the operation and its operands.
// A launch carries it by value inside the pooled launch record, so the
// kernel body is a plain method rather than a closure over per-call
// operands (which would be heap-allocated on every launch).
type vecArgs struct {
	op      vecOp
	x, y, z []float64
	f       []float64 // diagonal of the Chebyshev kernels; nil reads as ones
	a, b, c float64
	partial []float64 // two partials per block of a parallel reduction
}

// run executes the kernel over the element range [lo, hi): elementwise
// kernels in one go, reductions block by block (lo is block-aligned),
// storing each block's partials at the block's index.
func (k *vecArgs) run(lo, hi int) {
	if k.op >= opScale {
		k.elementwise(lo, hi)
		return
	}
	for b := lo; b < hi; b += reduceBlock {
		i := 2 * (b / reduceBlock)
		k.partial[i], k.partial[i+1] = k.block(b, min(b+reduceBlock, hi))
	}
}

// block returns the partial(s) of one reduction block [lo, hi).
func (k *vecArgs) block(lo, hi int) (p, q float64) {
	switch k.op {
	case opDot:
		return dotChunk(k.x[lo:hi], k.y[lo:hi]), 0
	case opShiftDot:
		return shiftDotChunk(k.x[lo:hi], k.y[lo:hi], k.a)
	case opResidScale:
		return residScaleChunk(k.x[lo:hi], k.y[lo:hi], k.a, k.b, k.c), 0
	case opChebStep:
		var f []float64
		if k.f != nil {
			f = k.f[lo:hi]
		}
		return chebStepChunk(k.x[lo:hi], k.y[lo:hi], k.z[lo:hi], f, k.a, k.b), 0
	}
	panic("device: not a reduction kernel")
}

// reduce evaluates a reduction kernel over the fixed blocks of [0, n) and
// adds the block partials in ascending block order. A nil or one-worker
// Device, or a single block, runs the block loop inline; otherwise whole
// blocks are dispatched in chunks and their partials gathered in the
// Device's buffer.
func (d *Device) reduce(k vecArgs, n int) (s, t float64) {
	if n <= 0 {
		return 0, 0
	}
	if d != nil {
		d.reduceLaunches.Add(1)
	}
	nb := (n + reduceBlock - 1) / reduceBlock
	if d == nil || d.workers == 1 || nb == 1 {
		for b := 0; b < n; b += reduceBlock {
			p, q := k.block(b, min(b+reduceBlock, n))
			s, t = s+p, t+q
		}
		return s, t
	}
	// A concurrent reduction on this Device holding the buffer gets its own.
	owned := d.partialBusy.CompareAndSwap(false, true)
	if owned && len(d.partial) >= 2*nb {
		k.partial = d.partial
	} else {
		k.partial = make([]float64, 2*nb)
		if owned {
			d.partial = k.partial
		}
	}
	per := max((nb+d.workers-1)/d.workers, (d.grain+reduceBlock-1)/reduceBlock)
	d.run(LaunchKindReduce, n, per*reduceBlock, (nb+per-1)/per, nil, &k)
	for i := 0; i < 2*nb; i += 2 {
		s, t = s+k.partial[i], t+k.partial[i+1]
	}
	if owned {
		d.partialBusy.Store(false)
	}
	return s, t
}

// elementwise runs an elementwise kernel over [0, n). Each element is
// touched once with the same operation sequence whatever the partition, so
// the chunking (one chunk per worker) never shows in the result.
func (d *Device) elementwise(k vecArgs, n int) {
	if n <= 0 {
		return
	}
	if d == nil {
		k.run(0, n)
		return
	}
	d.launches.Add(1)
	d.threadsTotal.Add(int64(n))
	chunk, nchunks := d.plan(n, d.grain)
	d.chunksTotal.Add(int64(nchunks))
	d.run(LaunchKindRange, n, chunk, nchunks, nil, &k)
}

// sqrtSafe returns √s when the sum of squares s is a normal finite number.
// When s came out 0, subnormal, Inf or NaN it returns the scaled norm of
// y − a·x (of y when x is nil) instead, which costs a divide per element.
func sqrtSafe(s float64, y, x []float64, a float64) float64 {
	if s >= 0x1p-1022 && s <= math.MaxFloat64 {
		return math.Sqrt(s)
	}
	return vec.ScaledNorm2(y, x, a)
}

// dotChunk is Σ x[k]·y[k] over one block in the documented 4-lane order.
// The caller guarantees len(y) ≥ len(x); the re-slice makes the prover see
// it, so the loop body runs without bounds checks.
func dotChunk(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	// Slice-advance loops: constant indexes on shrinking slices are the one
	// form the go1.24 prover eliminates completely (counter loops keep a
	// check per iteration — see scripts/check_bce.sh).
	for len(x) >= 4 && len(y) >= 4 {
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
		x, y = x[4:], y[4:]
	}
	s := ((s0 + s1) + s2) + s3
	for len(x) > 0 && len(y) > 0 {
		s += x[0] * y[0]
		x, y = x[1:], y[1:]
	}
	return s
}

// Dot returns xᵀy under the block reduction contract.
func (d *Device) Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("device: Dot length mismatch")
	}
	s, _ := d.reduce(vecArgs{op: opDot, x: x, y: y}, len(x))
	return s
}

// Norm2 returns ‖x‖₂ as the square root of the block-reduced xᵀx, falling
// back to a scaled norm only when that sum under- or overflows.
func (d *Device) Norm2(x []float64) float64 {
	return sqrtSafe(d.Dot(x, x), x, nil, 0)
}

// ResidualNorm2 returns ‖w − λx‖₂, the power-iteration residual
// R(λ̃, x̃) of the paper, in one fused pass over the operands (the sum of
// squares of pass A with shift λ).
func (d *Device) ResidualNorm2(w, x []float64, lambda float64) float64 {
	if len(w) != len(x) {
		panic("device: ResidualNorm2 length mismatch")
	}
	_, s := d.reduce(vecArgs{op: opShiftDot, x: x, y: w, a: lambda}, len(w))
	return math.Sqrt(s)
}

// shiftDotChunk returns Σ x[k]·w′[k] and Σ w′[k]² over one block, with
// w′ = w − µx formed in registers, both in the documented 4-lane order.
func shiftDotChunk(x, w []float64, mu float64) (dot, sq float64) {
	w = w[:len(x)]
	var d0, d1, d2, d3, q0, q1, q2, q3 float64
	for len(x) >= 4 && len(w) >= 4 {
		v0 := w[0] - mu*x[0]
		v1 := w[1] - mu*x[1]
		v2 := w[2] - mu*x[2]
		v3 := w[3] - mu*x[3]
		d0 += x[0] * v0
		d1 += x[1] * v1
		d2 += x[2] * v2
		d3 += x[3] * v3
		q0 += v0 * v0
		q1 += v1 * v1
		q2 += v2 * v2
		q3 += v3 * v3
		x, w = x[4:], w[4:]
	}
	dot, sq = ((d0+d1)+d2)+d3, ((q0+q1)+q2)+q3
	for len(x) > 0 && len(w) > 0 {
		v := w[0] - mu*x[0]
		dot += x[0] * v
		sq += v * v
		x, w = x[1:], w[1:]
	}
	return dot, sq
}

// ShiftDotNorm is pass A of the fused power step. For the shifted product
// w′ = w − µx, formed in registers and never stored, it returns the
// Rayleigh numerator xᵀw′ and ‖w′‖₂ from one read of x and w. The norm is
// the square root of the block-reduced sum of squares unless that sum
// comes out 0, subnormal, Inf or NaN; then a scaled pass recomputes it.
func (d *Device) ShiftDotNorm(x, w []float64, mu float64) (dot, norm float64) {
	if len(x) != len(w) {
		panic("device: ShiftDotNorm length mismatch")
	}
	dot, sq := d.reduce(vecArgs{op: opShiftDot, x: x, y: w, a: mu}, len(x))
	return dot, sqrtSafe(sq, w, x, mu)
}

// residScaleChunk returns Σ (w′[k] − λ·x[k])² over one block in the
// documented 4-lane order, with w′ = w − µx formed in registers, and
// overwrites w with s·w′.
func residScaleChunk(x, w []float64, mu, lambda, s float64) float64 {
	w = w[:len(x)]
	var s0, s1, s2, s3 float64
	for len(x) >= 4 && len(w) >= 4 {
		v0 := w[0] - mu*x[0]
		v1 := w[1] - mu*x[1]
		v2 := w[2] - mu*x[2]
		v3 := w[3] - mu*x[3]
		r0 := v0 - lambda*x[0]
		r1 := v1 - lambda*x[1]
		r2 := v2 - lambda*x[2]
		r3 := v3 - lambda*x[3]
		s0 += r0 * r0
		s1 += r1 * r1
		s2 += r2 * r2
		s3 += r3 * r3
		w[0], w[1], w[2], w[3] = v0*s, v1*s, v2*s, v3*s
		x, w = x[4:], w[4:]
	}
	acc := ((s0 + s1) + s2) + s3
	for len(x) > 0 && len(w) > 0 {
		v := w[0] - mu*x[0]
		r := v - lambda*x[0]
		acc += r * r
		w[0] = v * s
		x, w = x[1:], w[1:]
	}
	return acc
}

// ResidualScale is pass B of the fused power step. With w′ = w − µx formed
// in registers it returns the residual ‖w′ − λx‖₂, accumulated directly
// (never as the cancelling ‖w′‖² − λ²), and overwrites w with s·w′ — the
// next iterate when s = 1/‖w′‖₂.
func (d *Device) ResidualScale(x, w []float64, mu, lambda, s float64) float64 {
	if len(x) != len(w) {
		panic("device: ResidualScale length mismatch")
	}
	r, _ := d.reduce(vecArgs{op: opResidScale, x: x, y: w, a: mu, b: lambda, c: s}, len(x))
	return math.Sqrt(r)
}

// chebTerm is one element of the Chebyshev recurrence, s·(fw − c·z) − x,
// rounded after every operation. The explicit conversions forbid fused
// multiply-adds, so the value is the same at every GOAMD64 level and equal
// to the unfused pass sequence (Mul, then the recurrence map).
func chebTerm(fw, z, x, c, s float64) float64 {
	return float64(s*float64(fw-float64(c*z))) - x
}

// chebStepChunk overwrites x with x′ = s·(f⊙w − c·z) − x over one block (f
// nil reads as ones) and returns Σ x′² in the documented 4-lane order —
// the order of dotChunk(x′, x′), so the norm equals a separate Norm2 pass.
func chebStepChunk(x, w, z, f []float64, c, s float64) float64 {
	w, z = w[:len(x)], z[:len(x)]
	if f == nil {
		// Operators that apply in full: a plain loop, same lane order.
		var lanes [4]float64
		m := len(x) &^ 3
		for i := 0; i < m; i++ {
			v := chebTerm(w[i], z[i], x[i], c, s)
			x[i] = v
			lanes[i&3] += v * v
		}
		acc := ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
		for i := m; i < len(x); i++ {
			v := chebTerm(w[i], z[i], x[i], c, s)
			x[i] = v
			acc += v * v
		}
		return acc
	}
	f = f[:len(x)]
	var s0, s1, s2, s3 float64
	for len(x) >= 4 && len(w) >= 4 && len(z) >= 4 && len(f) >= 4 {
		v0 := chebTerm(float64(f[0]*w[0]), z[0], x[0], c, s)
		v1 := chebTerm(float64(f[1]*w[1]), z[1], x[1], c, s)
		v2 := chebTerm(float64(f[2]*w[2]), z[2], x[2], c, s)
		v3 := chebTerm(float64(f[3]*w[3]), z[3], x[3], c, s)
		x[0], x[1], x[2], x[3] = v0, v1, v2, v3
		s0 += v0 * v0
		s1 += v1 * v1
		s2 += v2 * v2
		s3 += v3 * v3
		x, w, z, f = x[4:], w[4:], z[4:], f[4:]
	}
	acc := ((s0 + s1) + s2) + s3
	for len(x) > 0 && len(w) > 0 && len(z) > 0 && len(f) > 0 {
		v := chebTerm(float64(f[0]*w[0]), z[0], x[0], c, s)
		x[0] = v
		acc += v * v
		x, w, z, f = x[1:], w[1:], z[1:], f[1:]
	}
	return acc
}

// ChebyshevStep is the fused recurrence step of the Chebyshev filter. For
// the product w = D⁻¹·W·z of an operator whose trailing diagonal scale
// D = diag(f) was left off (f nil: w = W·z), it overwrites x with
// x′ = s·(f⊙w − c·z) − x and returns ‖x′‖₂ from the same pass — one read
// of x, w, z and f. The result is bit-identical to Mul(w, w, f), the map
// x ← s·(w − c·z) − x, and Norm2(x) run as three passes.
func (d *Device) ChebyshevStep(x, w, z, f []float64, c, s float64) float64 {
	if len(w) != len(x) || len(z) != len(x) || (f != nil && len(f) != len(x)) {
		panic("device: ChebyshevStep length mismatch")
	}
	ss, _ := d.reduce(vecArgs{op: opChebStep, x: x, y: w, z: z, f: f, a: c, b: s}, len(x))
	return sqrtSafe(ss, x, nil, 0)
}

// ChebyshevStart is the first (degree-one) step of a Chebyshev filter
// restart: z ← s·(f⊙w − c·x), bit-identical to Mul(w, w, f), Copy(z, w),
// AXPY(−c, x, z) and Scale(z, s) with every product rounded.
func (d *Device) ChebyshevStart(z, w, x, f []float64, c, s float64) {
	if len(w) != len(z) || len(x) != len(z) || (f != nil && len(f) != len(z)) {
		panic("device: ChebyshevStart length mismatch")
	}
	d.elementwise(vecArgs{op: opChebStart, x: x, y: w, z: z, f: f, a: c, b: s}, len(z))
}

// elementwise applies an elementwise kernel to [lo, hi). The 4-wide
// unrolls touch each element once with the same single operation as the
// scalar loop, so they are bit-identical to it.
func (k *vecArgs) elementwise(lo, hi int) {
	a := k.a
	switch k.op {
	case opScale:
		s := k.x[lo:hi]
		for len(s) >= 4 {
			s[0] *= a
			s[1] *= a
			s[2] *= a
			s[3] *= a
			s = s[4:]
		}
		for len(s) > 0 {
			s[0] *= a
			s = s[1:]
		}
	case opAXPBY:
		b, xs, ys := k.b, k.x[lo:hi], k.y[lo:hi]
		for len(xs) >= 4 && len(ys) >= 4 {
			ys[0] = a*xs[0] + b*ys[0]
			ys[1] = a*xs[1] + b*ys[1]
			ys[2] = a*xs[2] + b*ys[2]
			ys[3] = a*xs[3] + b*ys[3]
			xs, ys = xs[4:], ys[4:]
		}
		for len(xs) > 0 && len(ys) > 0 {
			ys[0] = a*xs[0] + b*ys[0]
			xs, ys = xs[1:], ys[1:]
		}
	case opCopy:
		copy(k.z[lo:hi], k.x[lo:hi])
	case opMul:
		ds, xs, ys := k.z[lo:hi], k.x[lo:hi], k.y[lo:hi]
		for len(ds) >= 4 && len(xs) >= 4 && len(ys) >= 4 {
			ds[0] = xs[0] * ys[0]
			ds[1] = xs[1] * ys[1]
			ds[2] = xs[2] * ys[2]
			ds[3] = xs[3] * ys[3]
			ds, xs, ys = ds[4:], xs[4:], ys[4:]
		}
		for len(ds) > 0 && len(xs) > 0 && len(ys) > 0 {
			ds[0] = xs[0] * ys[0]
			ds, xs, ys = ds[1:], xs[1:], ys[1:]
		}
	case opChebStart:
		c, s := k.a, k.b
		zs, ws, xs := k.z[lo:hi], k.y[lo:hi], k.x[lo:hi]
		if k.f == nil {
			for len(zs) > 0 && len(ws) > 0 && len(xs) > 0 {
				zs[0] = float64(s * float64(ws[0]-float64(c*xs[0])))
				zs, ws, xs = zs[1:], ws[1:], xs[1:]
			}
			return
		}
		fs := k.f[lo:hi]
		for len(zs) > 0 && len(ws) > 0 && len(xs) > 0 && len(fs) > 0 {
			zs[0] = float64(s * float64(float64(fs[0]*ws[0])-float64(c*xs[0])))
			zs, ws, xs, fs = zs[1:], ws[1:], xs[1:], fs[1:]
		}
	}
}

// Scale multiplies x by a in place.
func (d *Device) Scale(x []float64, a float64) {
	d.elementwise(vecArgs{op: opScale, x: x, a: a}, len(x))
}

// AXPY computes y ← a·x + y in place.
func (d *Device) AXPY(a float64, x, y []float64) { d.AXPBY(a, x, 1, y) }

// AXPBY computes y ← a·x + b·y in place. With b = 1 the product 1·y is
// exact, so AXPY rounds exactly like the plain y + a·x.
func (d *Device) AXPBY(a float64, x []float64, b float64, y []float64) {
	if len(x) != len(y) {
		panic("device: AXPBY length mismatch")
	}
	d.elementwise(vecArgs{op: opAXPBY, x: x, y: y, a: a, b: b}, len(x))
}

// Copy copies src into dst.
func (d *Device) Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("device: Copy length mismatch")
	}
	d.elementwise(vecArgs{op: opCopy, x: src, z: dst}, len(dst))
}

// Mul computes dst ← x ⊙ y elementwise. dst may alias x or y.
func (d *Device) Mul(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("device: Mul length mismatch")
	}
	d.elementwise(vecArgs{op: opMul, x: x, y: y, z: dst}, len(dst))
}
