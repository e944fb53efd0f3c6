// Command qs-gap sweeps the error rate and reports the spectral gap of
// W = Q·F — the quantity that governs the power iteration's convergence
// rate λ₁/λ₀ and, through it, every runtime in Figures 3 and 4. The gap
// closes as p approaches the error threshold, which is Figure 1's phase
// transition seen from the spectrum.
//
// Output: p, λ₀, λ₁, rate, shifted rate (with µ = (1−2p)^ν·f_min), the
// predicted power iteration count to reach 1e−10, the predicted Chebyshev
// matvecs (whole degree-30 restarts on the damping interval
// [0, λ₁ + ½(λ₀−λ₁)]), the gear the adaptive selector's cost model picks
// for that pair (core.PlanGear: the lower predicted cost, matvecs plus
// the gear's fixed passes, counted in vector streams), and a status
// column. Inside the critical window the two leading eigenvalues
// collapse below the attainable numerical resolution; such
// points are reported as "unresolved" (with the reason) instead of a
// spuriously tiny gap — the same signal that sends the adaptive sweep
// engine (qs-threshold -method auto) to shift-invert there. The
// selector itself plans from a 24-step Lanczos probe's Ritz values, lower
// bounds of the exact pair printed here.
//
//	qs-gap -nu 14 -pmin 0.005 -pmax 0.08 -steps 16
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/mutation"
)

func main() {
	var (
		nu    = flag.Int("nu", 12, "chain length ν")
		f0    = flag.Float64("f0", 2, "master fitness")
		f1    = flag.Float64("f1", 1, "base fitness")
		pMin  = flag.Float64("pmin", 0.005, "smallest error rate")
		pMax  = flag.Float64("pmax", 0.08, "largest error rate")
		steps = flag.Int("steps", 12, "number of p samples")
	)
	flag.Parse()
	if *steps < 2 || *pMin <= 0 || *pMax <= *pMin || *pMax > 0.5 {
		exitOn(fmt.Errorf("invalid sweep [%g, %g] with %d steps", *pMin, *pMax, *steps))
	}
	l, err := landscape.NewSinglePeak(*nu, *f0, *f1)
	exitOn(err)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# spectral gap of W = Q·F, single peak f0=%g f1=%g, ν=%d\n", *f0, *f1, *nu)
	fmt.Fprintln(w, "p\tlambda0\tlambda1\trate\tshifted_rate\tpredicted_iters_1e-10\tpredicted_cheb_matvecs\tgear\tstatus")
	for i := 0; i < *steps; i++ {
		p := *pMin + (*pMax-*pMin)*float64(i)/float64(*steps-1)
		q, err := mutation.NewUniform(*nu, p)
		exitOn(err)
		op, err := core.NewFmmpOperator(q, l, core.Symmetric, nil)
		exitOn(err)
		mu := core.ConservativeShift(q, l)
		gap, err := core.EstimateGap(op, mu, core.PowerOptions{
			Tol: 1e-11, Start: core.FitnessStart(l),
		})
		status := "ok"
		var unresolved *core.GapUnresolvedError
		if errors.As(err, &unresolved) {
			// λ₀ is still trustworthy; the separation is not. Report the
			// point instead of aborting the sweep — rate and prediction
			// columns are meaningless here.
			status = "unresolved:" + unresolved.Reason
			fmt.Fprintf(w, "%.5g\t%.8g\t%.8g\tnan\tnan\t-1\t-1\t%s\t%s\n",
				p, gap.Lambda0, gap.Lambda1, core.SolveShiftInvert, status)
			continue
		}
		exitOn(err)
		plan := core.PlanGear(gap.Lambda0, gap.Lambda1, mu)
		iters, cheb := plan.PowerMatVecs, plan.ChebMatVecs
		if iters == 0 {
			iters = -1
		}
		if cheb == 0 {
			cheb = -1
		}
		fmt.Fprintf(w, "%.5g\t%.8g\t%.8g\t%.6f\t%.6f\t%d\t%d\t%s\t%s\n",
			p, gap.Lambda0, gap.Lambda1, gap.Rate, gap.ShiftedRate, iters, cheb, plan.Gear, status)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qs-gap:", err)
		os.Exit(1)
	}
}
