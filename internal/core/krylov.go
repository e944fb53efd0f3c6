package core

import "repro/internal/device"

// Shared Krylov-subspace plumbing for the Lanczos-family solvers (Lanczos
// restarts, the shift-invert outer iteration, and the RitzGap probe): a
// reusable basis/tridiagonal scratch block and the single-cycle Lanczos
// three-term recurrence with full reorthogonalization. Keeping the step
// loop in one place means every caller inherits the same breakdown
// handling and the same memory trade-off accounting.

// KrylovWork is reusable scratch for Lanczos-style solves: a basis of up to
// k vectors of dimension n, the tridiagonal coefficients, and one product
// vector. Allocate once per solve slot (NewKrylovWork) and share it across
// the probes and Krylov solves of a sweep chain — repeated solves of the
// same (n, k) then allocate nothing.
type KrylovWork struct {
	basis [][]float64
	alpha []float64
	beta  []float64
	w     []float64
}

// NewKrylovWork returns empty scratch; buffers are sized lazily on first
// use, so one KrylovWork serves probes and solves with different basis
// sizes.
func NewKrylovWork(n int) *KrylovWork {
	_ = n // sizing is lazy; the parameter documents intent at call sites
	return &KrylovWork{}
}

// krylov returns the basis, coefficient, and product buffers (re)sized for
// a k-step dimension-n recurrence.
func (kw *KrylovWork) krylov(n, k int) (basis [][]float64, alpha, beta, w []float64) {
	if len(kw.basis) < k {
		nb := make([][]float64, k)
		copy(nb, kw.basis)
		kw.basis = nb
	}
	for i := 0; i < k; i++ {
		if len(kw.basis[i]) != n {
			kw.basis[i] = device.AllocVector(n)
		}
	}
	if len(kw.alpha) < k {
		kw.alpha = make([]float64, k)
	}
	if len(kw.beta) < k {
		kw.beta = make([]float64, k)
	}
	if len(kw.w) != n {
		kw.w = device.AllocVector(n)
	}
	return kw.basis[:k], kw.alpha[:k], kw.beta[:k], kw.w
}

// lanczosSteps runs up to k steps of the symmetric Lanczos recurrence on
// op, starting from the unit vector already stored in basis[0]. It fills
// alpha[0:built] and beta[0:built-1] (beta[j] couples basis[j] and
// basis[j+1]) with full reorthogonalization of the small basis, and
// returns built ≤ k, stopping early when the Krylov space closes (an
// invariant subspace: ‖w‖ below 1e-300). matvecs, when non-nil, is
// incremented once per operator application.
func lanczosSteps(op Operator, basis [][]float64, alpha, beta, w []float64, k int, matvecs *int) int {
	var dev *device.Device // the shared block kernels, run inline
	built := 0
	for j := 0; j < k; j++ {
		op.Apply(w, basis[j])
		if matvecs != nil {
			*matvecs++
		}
		alpha[j] = dev.Dot(basis[j], w)
		dev.AXPY(-alpha[j], basis[j], w)
		if j > 0 {
			dev.AXPY(-beta[j-1], basis[j-1], w)
		}
		// Full reorthogonalization: cheap at small k, removes the classic
		// Lanczos loss-of-orthogonality failure mode.
		for t := 0; t <= j; t++ {
			c := dev.Dot(basis[t], w)
			dev.AXPY(-c, basis[t], w)
		}
		built = j + 1
		if j+1 < k {
			b := dev.Norm2(w)
			if b < 1e-300 {
				break // invariant subspace found
			}
			beta[j] = b
			dev.Copy(basis[j+1], w)
			dev.Scale(basis[j+1], 1/b)
		}
	}
	return built
}
