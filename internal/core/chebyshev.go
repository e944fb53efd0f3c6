package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/span"
	"repro/internal/vec"
)

// Chebyshev-accelerated power iteration: the middle gear of the adaptive
// critical-window engine. One restart applies the degree-d Chebyshev
// polynomial T_d mapped onto a damping interval [a, b] with b < λ₀: every
// eigencomponent inside [a, b] is suppressed to |T_d| ≤ 1 while the
// dominant one is amplified by T_d(2λ₀/(b−a) − (b+a)/(b−a)) ≈ cosh(d·√γ)
// — a quadratic speedup in the effective rate over the plain power method
// for the same number of matrix–vector products, with the same 3·N memory
// footprint (no Krylov basis to store, which is what makes it usable at
// the ν ≥ 18 sizes where the paper rejects Lanczos on memory grounds).
//
// The upper edge b must separate λ₁ from λ₀: λ₁ ≤ b < λ₀. A safe choice
// comes from a RitzGap probe — by Cauchy interlacing θ₁ ≤ λ₁ and θ₀ ≤ λ₀,
// so b = θ₁ + ½(θ₀ − θ₁) is below θ₀ ≤ λ₀ whenever the probe resolves the
// pair. If b turns out ≥ λ₀ the filter damps the dominant component too;
// the stall guard detects the flat residual and returns ErrStagnated so
// the adaptive layer can re-probe or escalate.

// ChebyshevOptions configures the Chebyshev-filtered iteration.
type ChebyshevOptions struct {
	// Tol is the residual threshold on ‖W·x − λ·x‖₂. Default 1e-13.
	Tol float64
	// Degree is the filter polynomial degree per restart (matrix–vector
	// products per restart). Default 30.
	Degree int
	// MaxMatVecs caps the total operator applications. Default 500000.
	MaxMatVecs int
	// LowerEdge is the damping interval's lower end a; for the PSD
	// quasispecies operators 0 is always valid. Values < 0 are clamped.
	LowerEdge float64
	// UpperEdge is the damping interval's upper end b, with λ₁ ≤ b < λ₀
	// required for amplification (see the file comment). Mandatory.
	UpperEdge float64
	// Start is the starting vector; copied, not mutated. Default: uniform.
	// May alias the Work iterate (warm-start continuation).
	Start []float64
	// Dev selects device-parallel BLAS-1 operations; nil runs serially.
	Dev *device.Device
	// StallRestarts is the number of consecutive restarts without residual
	// improvement (relative 1e-6) after which the solve stops with
	// ErrStagnated. Default 6; negative disables the guard.
	StallRestarts int
	// Observer, when non-nil, receives one Step per restart plus lifecycle
	// events — same contract as PowerOptions.Observer.
	Observer Observer
	// Work supplies reusable scratch; the returned Vector aliases its
	// iterate. Nil allocates fresh scratch.
	Work *ChebyshevWork
}

// ChebyshevWork is the reusable scratch of the Chebyshev iteration: the
// current and previous recurrence iterates plus one product vector.
type ChebyshevWork struct {
	x, z, w []float64
}

// NewChebyshevWork returns scratch for dimension-n solves.
func NewChebyshevWork(n int) *ChebyshevWork {
	return &ChebyshevWork{x: device.AllocVector(n), z: device.AllocVector(n), w: device.AllocVector(n)}
}

func (cw *ChebyshevWork) vectors(n int) (x, z, w []float64) {
	if len(cw.x) != n {
		cw.x = device.AllocVector(n)
	}
	if len(cw.z) != n {
		cw.z = device.AllocVector(n)
	}
	if len(cw.w) != n {
		cw.w = device.AllocVector(n)
	}
	return cw.x, cw.z, cw.w
}

// ChebyshevResult is the outcome of the Chebyshev-filtered iteration.
type ChebyshevResult struct {
	// Lambda is the Rayleigh quotient of the final iterate.
	Lambda float64
	// Vector is the eigenvector estimate, unit 2-norm, non-negative
	// orientation. Aliases Work's iterate when Work was supplied.
	Vector []float64
	// MatVecs is the number of operator applications performed.
	MatVecs int
	// Restarts is the number of degree-d filter applications.
	Restarts int
	// Residual is the final ‖W·x − λ·x‖₂.
	Residual float64
	// Converged reports whether Residual ≤ Tol was reached.
	Converged bool
}

// ChebyshevIteration computes the dominant eigenpair of the *symmetric*
// operator op by restarted Chebyshev filtering on [LowerEdge, UpperEdge].
// It returns the partial result with ErrNoConvergence when the budget is
// exhausted and ErrStagnated when restarts stop improving the residual
// (typically a mis-set UpperEdge ≥ λ₀).
func ChebyshevIteration(op Operator, opts ChebyshevOptions) (ChebyshevResult, error) {
	n := op.Dim()
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-13
	}
	deg := opts.Degree
	if deg <= 0 {
		deg = 30
	}
	maxMatVecs := opts.MaxMatVecs
	if maxMatVecs <= 0 {
		maxMatVecs = 500000
	}
	stallRestarts := opts.StallRestarts
	if stallRestarts == 0 {
		stallRestarts = 6
	}
	a := opts.LowerEdge
	if a < 0 {
		a = 0
	}
	b := opts.UpperEdge
	if !(b > a) || math.IsNaN(b) || math.IsInf(b, 0) {
		return ChebyshevResult{}, fmt.Errorf("core: Chebyshev damping interval [%g, %g] is empty or invalid", a, b)
	}
	dev := opts.Dev

	var x, z, w []float64
	if opts.Work != nil {
		x, z, w = opts.Work.vectors(n)
	} else {
		x = device.AllocVector(n)
		z = device.AllocVector(n)
		w = device.AllocVector(n)
	}
	if opts.Start != nil {
		if len(opts.Start) != n {
			return ChebyshevResult{}, fmt.Errorf("core: start vector length %d, want %d", len(opts.Start), n)
		}
		copy(x, opts.Start) // self-copy when Start aliases the scratch iterate
	} else {
		vec.Fill(x, 1)
	}
	nrm := dev.Norm2(x)
	if nrm == 0 {
		return ChebyshevResult{}, errors.New("core: start vector is zero")
	}
	dev.Scale(x, 1/nrm)

	// Interval map: λ ↦ (2λ − (b+a))/(b−a) sends [a, b] to [−1, 1].
	center := (b + a) / 2
	halfWidth := (b - a) / 2

	sh := solveObs.Load()
	sr := span.Installed()
	var sp span.Handle
	if sr != nil {
		sp = sr.Begin(span.LayerCore, SolveKindChebyshev)
	}
	if sh != nil {
		sh.o.SolveStart(SolveKindChebyshev, n)
	}
	if opts.Observer != nil {
		notifyMethod(opts.Observer, SolveKindChebyshev)
		opts.Observer.Event(EventStart, 0, b, 0)
	}

	res := ChebyshevResult{Vector: x}
	bestResidual := math.Inf(1)
	stalled := 0
	lastMatVecs := 0
	for res.MatVecs < maxMatVecs {
		res.Restarts++
		// One degree-deg filter application via the three-term recurrence
		// z_{j+1} = 2·A'·z_j − z_{j−1} with A' = (W − c·I)/e, rescaling both
		// iterates jointly whenever they grow (the recurrence is linear, so
		// a joint rescale only changes the overall normalization).
		steps := deg
		if remaining := maxMatVecs - res.MatVecs; steps > remaining {
			steps = remaining
		}
		ph := beginPhase(sr, PhaseChebPoly)
		// z ← A'·x = (W·x − c·x)/e (degree 1), previous iterate is x (degree 0).
		// Each product leaves the operator's trailing diagonal scale (√F
		// of the Symmetric form) to the recurrence kernel that consumes it,
		// so a recurrence matvec is the butterflies plus one fused pass.
		post := applyPre(op, w, x)
		res.MatVecs++
		dev.ChebyshevStart(z, w, x, post, center, 1/halfWidth)
		nrm = -1 // ‖x‖ of the filtered vector, when the last step measured it
		for j := 1; j < steps; j++ {
			post = applyPre(op, w, z)
			res.MatVecs++
			// x ← 2·A'·z − x, then swap roles of x and z.
			m := dev.ChebyshevStep(x, w, z, post, center, 2/halfWidth)
			x, z = z, x
			nrm = m
			if m > 1e100 || (m < 1e-100 && m > 0) {
				inv := 1 / m
				dev.Scale(x, inv)
				dev.Scale(z, inv)
				nrm = -1
			}
		}
		// The in-loop swap leaves the newest iterate z_steps in z; swap once
		// more so x names the filtered vector.
		x, z = z, x
		span.End(ph, int64(res.Restarts), int64(steps))

		ph = beginPhase(sr, PhaseNormalize)
		if nrm < 0 {
			nrm = dev.Norm2(x)
		}
		if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
			span.End(ph, int64(res.Restarts), 0)
			finishCheb(&res, x, opts.Work)
			powerDone(sh, sp, opts.Observer, SolveKindChebyshev, EventBreakdown, n, res.MatVecs, res.Lambda, res.Residual)
			return res, fmt.Errorf("core: Chebyshev iteration broke down at restart %d (‖x‖ = %g)", res.Restarts, nrm)
		}
		dev.Scale(x, 1/nrm)
		span.End(ph, int64(res.Restarts), 0)

		// Rayleigh quotient and explicit residual of the filtered iterate.
		ph = beginPhase(sr, PhaseRayleigh)
		op.Apply(w, x)
		res.MatVecs++
		lambda := dev.Dot(x, w)
		span.End(ph, int64(res.Restarts), 0)
		res.Lambda = lambda
		ph = beginPhase(sr, PhaseResidual)
		r := dev.ResidualNorm2(w, x, lambda)
		span.End(ph, int64(res.Restarts), 0)
		res.Residual = r
		if sh != nil {
			sh.o.SolveStep(SolveKindChebyshev, res.MatVecs-lastMatVecs)
		}
		lastMatVecs = res.MatVecs
		if opts.Observer != nil {
			opts.Observer.Step(res.MatVecs, lambda, r)
		}
		if r <= tol {
			res.Converged = true
			finishCheb(&res, x, opts.Work)
			powerDone(sh, sp, opts.Observer, SolveKindChebyshev, EventConverged, n, res.MatVecs, lambda, r)
			return res, nil
		}
		if r < bestResidual*(1-1e-6) {
			bestResidual = r
			stalled = 0
		} else if stalled++; stallRestarts > 0 && stalled >= stallRestarts {
			finishCheb(&res, x, opts.Work)
			powerDone(sh, sp, opts.Observer, SolveKindChebyshev, EventStagnated, n, res.MatVecs, lambda, r)
			return res, &ConvergenceError{
				Reason: ErrStagnated, Method: SolveKindChebyshev,
				Detail:     fmt.Sprintf("damping interval [%g, %g] may not separate λ₁ from λ₀", a, b),
				Iterations: res.MatVecs, Residual: r, BestResidual: bestResidual,
				SinceImprovement: stalled * deg, Shift: b, Tol: tol,
			}
		}
	}
	finishCheb(&res, x, opts.Work)
	powerDone(sh, sp, opts.Observer, SolveKindChebyshev, EventBudgetExhausted, n, res.MatVecs, res.Lambda, res.Residual)
	return res, &ConvergenceError{
		Reason: ErrNoConvergence, Method: SolveKindChebyshev,
		Iterations: res.MatVecs, Residual: res.Residual, BestResidual: bestResidual,
		Shift: b, Tol: tol,
	}
}

// finishCheb orients the final iterate and repoints the Work scratch so the
// next solve's vectors(n) call hands the caller-visible Vector back as the
// iterate (the swap inside the recurrence may have exchanged x and z).
func finishCheb(res *ChebyshevResult, x []float64, work *ChebyshevWork) {
	orientPositive(x)
	res.Vector = x
	if work != nil && &work.x[0] != &x[0] {
		work.x, work.z = x, work.x
	}
}

// applyPre computes dst ← op·src, except that an operator which ends its
// product in an elementwise scale may leave that scale off and return it
// (the Symmetric Fmmp operator's √F); the result is then f ⊙ dst. A nil
// return means dst holds the full product.
func applyPre(op Operator, dst, src []float64) (f []float64) {
	if fo, ok := op.(*FmmpOperator); ok {
		return fo.applyPre(dst, src)
	}
	op.Apply(dst, src)
	return nil
}
