package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	qs "repro"
	"repro/internal/core"
	"repro/internal/errorclass"
	"repro/internal/landscape"
)

// A workload is either repeated cold single solves (solve != nil) or one
// error-rate sweep per timed unit (sweep != nil).
type workload struct {
	name  string
	solve *solveSpec
	sweep *sweepSpec
}

// solveSpec is Figure 3's random landscape (Eq. 13) at one error rate.
type solveSpec struct {
	nu          int
	c, sigma, p float64
	workers     int
	perUnit     int // distinct landscapes solved per timed unit
}

// sweepSpec is a single-peak landscape (f₀ = sigma, f₁ = 1) swept over
// points error rates from lo·p_c to hi·p_c, p_c = 1 − sigma^(−1/ν).
type sweepSpec struct {
	nu      int
	sigma   float64
	lo, hi  float64
	points  int
	workers int
	method  string // "" is the power sweep
}

var workloads = []workload{
	{name: "solve-nu22", solve: &solveSpec{nu: 22, c: 5, sigma: 1, p: 0.01, workers: 2, perUnit: 4}},
	{name: "sweep-warm-nu18", sweep: &sweepSpec{nu: 18, sigma: 2, lo: 0.50, hi: 0.94, points: 16, workers: 1}},
	{name: "critical-nu16", sweep: &sweepSpec{nu: 16, sigma: 2, lo: 0.90, hi: 1.08, points: 13, workers: 2, method: "auto"}},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// splitmix64 derives the landscape seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// landscapeSeeds picks the perUnit random landscapes of one run.
func (s *solveSpec) landscapeSeeds(seed uint64) []uint64 {
	out := make([]uint64, s.perUnit)
	for j := range out {
		out[j] = splitmix64(seed*uint64(s.perUnit) + uint64(j))
	}
	return out
}

// gridOffsetStep is the p-grid shift per unit of (seed mod 8), in units
// of p_c. At 1e-4·p_c some ν = 18 warm grids stagnate at the default
// tolerance (see README.md), so the shifts stay below that.
const gridOffsetStep = 1e-5

func (s *sweepSpec) pc() float64 { return 1 - math.Pow(s.sigma, -1/float64(s.nu)) }

func (s *sweepSpec) grid(seed uint64) []float64 {
	off := float64(seed%8) * gridOffsetStep
	ps := make([]float64, s.points)
	for i := range ps {
		ps[i] = (s.lo + (s.hi-s.lo)*float64(i)/float64(s.points-1) + off) * s.pc()
	}
	return ps
}

// unitOut is what one timed unit (perUnit solves, or one sweep) produced.
type unitOut struct {
	wall    float64   // seconds in the timed section
	setups  []float64 // per solve or per sweep: call → first solver start
	lats    []float64 // per solve, or per sweep point Observe → Progress
	lambdas []float64 // per solve; sweeps expose no λ
	gammas  [][]float64
	iters   []int
	methods []string
	warm    int
	failed  int
}

func (u *unitOut) attempted() int { return len(u.gammas) }

// counters are the deterministic cost counts of a unit; two runs of the
// same code and seed must agree on them exactly.
type counters struct {
	iterations, maxPoint, warm int
	power, chebyshev, shiftinv int
}

func (u *unitOut) counters() counters {
	c := counters{warm: u.warm}
	for i, it := range u.iters {
		c.iterations += it
		c.maxPoint = max(c.maxPoint, it)
		switch u.methods[i] {
		case "power":
			c.power++
		case "chebyshev":
			c.chebyshev++
		case "shiftinvert":
			c.shiftinv++
		}
	}
	return c
}

// sameOutputs reports whether two units produced bit-identical λ and Γ.
func sameOutputs(a, b *unitOut) bool {
	if len(a.gammas) != len(b.gammas) || len(a.lambdas) != len(b.lambdas) {
		return false
	}
	for i := range a.lambdas {
		if math.Float64bits(a.lambdas[i]) != math.Float64bits(b.lambdas[i]) {
			return false
		}
	}
	for i := range a.gammas {
		if len(a.gammas[i]) != len(b.gammas[i]) {
			return false
		}
		for k := range a.gammas[i] {
			if math.Float64bits(a.gammas[i][k]) != math.Float64bits(b.gammas[i][k]) {
				return false
			}
		}
	}
	return true
}

// startClock is a facade SolveObserver that records when the first solver
// "start" event of a solve or sweep arrives and the last terminal event.
type startClock struct {
	first    atomic.Int64 // UnixNano of the first start event; 0 until then
	mu       sync.Mutex
	terminal string
}

func (c *startClock) Step(int, float64, float64) {}

func (c *startClock) Event(ev string, _ int, _, _ float64) {
	if ev == core.EventStart {
		c.first.CompareAndSwap(0, time.Now().UnixNano())
		return
	}
	c.mu.Lock()
	c.terminal = ev
	c.mu.Unlock()
}

func (c *startClock) since(t0 time.Time) float64 {
	return float64(c.first.Load()-t0.UnixNano()) / 1e9
}

// residualSlack is how far above the solve tolerance the recomputed
// residual of a solve-nu22 solution may lie: the check re-normalizes the
// concentrations and recomputes ‖W·x − λ·x‖₂ with the serial kernels, so
// it differs from the solver's last residual by rounding only.
const residualSlack = 4

// gammaTol bounds max_k |ΔΓ_k| between a full-space sweep point and the
// exact §5.1 error-class reduction; the observed worst case is 2.3e-9.
const gammaTol = 1e-7

// solveFacade runs one untraced unit of a solve workload through the
// public facade and checks every solution.
func solveFacade(s *solveSpec, seeds []uint64) (*unitOut, error) {
	u := &unitOut{}
	for _, ls := range seeds {
		clock := &startClock{}
		t0 := time.Now()
		l, err := qs.RandomLandscape(s.nu, s.c, s.sigma, ls)
		if err != nil {
			return nil, err
		}
		m, err := qs.UniformMutation(s.nu, s.p)
		if err != nil {
			return nil, err
		}
		mo, err := qs.New(m, l, qs.WithMethod(qs.MethodFmmp), qs.WithWorkers(s.workers), qs.WithObserver(clock))
		if err != nil {
			return nil, err
		}
		sol, err := mo.Solve()
		lat := time.Since(t0).Seconds()
		u.wall += lat
		u.lats = append(u.lats, lat)
		u.setups = append(u.setups, clock.since(t0))
		if err == nil && clock.terminal != core.EventConverged {
			err = fmt.Errorf("solve ended with %q", clock.terminal)
		}
		if err == nil {
			err = checkSolve(s, ls, mo, sol)
		}
		if err != nil {
			u.failed++
			logf("solve seed %d: %v", ls, err)
			u.lambdas = append(u.lambdas, math.NaN())
			u.gammas = append(u.gammas, nil)
			u.iters = append(u.iters, 0)
			u.methods = append(u.methods, "")
			continue
		}
		u.lambdas = append(u.lambdas, sol.Lambda)
		u.gammas = append(u.gammas, sol.Gamma)
		u.iters = append(u.iters, sol.Iterations)
		u.methods = append(u.methods, "power")
	}
	return u, nil
}

// checkSolve is the solve-nu22 correctness gate: the 2-normalized
// solution's residual, recomputed with Model.Residual, lies within the
// solve tolerance times residualSlack, and f_min ≤ λ ≤ f_max.
func checkSolve(s *solveSpec, seed uint64, mo *qs.Model, sol *qs.Solution) error {
	land, err := landscape.NewRandom(s.nu, s.c, s.sigma, seed)
	if err != nil {
		return err
	}
	fmin, fmax := land.Bounds()
	if !(sol.Lambda >= fmin && sol.Lambda <= fmax) {
		return fmt.Errorf("λ = %v outside [f_min, f_max] = [%v, %v]", sol.Lambda, fmin, fmax)
	}
	// Normalize in place: Gamma is already computed, and a copy would
	// add a vector to the peak RSS the benchmark reports.
	x := sol.Concentrations
	var ss float64
	for _, v := range x {
		ss += v * v
	}
	inv := 1 / math.Sqrt(ss)
	for i := range x {
		x[i] *= inv
	}
	r, err := mo.Residual(sol.Lambda, x)
	if err != nil {
		return err
	}
	if tol := core.DefaultTolerance(land); !(r <= residualSlack*tol) {
		return fmt.Errorf("recomputed residual %.3g above %d × tol %.3g", r, residualSlack, tol)
	}
	return nil
}

// sweepFacade runs one untraced sweep through the public facade. A sweep
// error fails every point, since the facade returns no partial curve.
func sweepFacade(s *sweepSpec, ps []float64, refs [][]float64) (*unitOut, error) {
	n := len(ps)
	u := &unitOut{
		gammas: make([][]float64, n), iters: make([]int, n), methods: make([]string, n),
		lats: make([]float64, n),
	}
	observed := make([]time.Time, n)
	warm := make([]bool, n)
	clock := &startClock{}
	opts := qs.SweepOptions{
		Workers: s.workers, WarmStart: true, Method: s.method,
		Observe: func(i int, _ float64) qs.SolveObserver {
			observed[i] = time.Now()
			return clock
		},
		Progress: func(i int, _ float64, iters int, w bool, method string) {
			u.lats[i] = time.Since(observed[i]).Seconds()
			u.iters[i], warm[i], u.methods[i] = iters, w, method
		},
	}
	t0 := time.Now()
	l, err := qs.SinglePeak(s.nu, s.sigma, 1)
	if err != nil {
		return nil, err
	}
	pts, err := qs.ThresholdCurveFullWith(l, ps, opts)
	u.wall = time.Since(t0).Seconds()
	u.setups = []float64{clock.since(t0)}
	if err != nil {
		logf("sweep: %v", err)
		u.failed = n
		return u, nil
	}
	for i, pt := range pts {
		u.gammas[i] = pt.Gamma
		if warm[i] {
			u.warm++
		}
	}
	u.failed = checkGammas(u.gammas, refs)
	return u, nil
}

// references solves every grid point with the exact §5.1 error-class
// reduction, the correctness reference of the sweeps.
func references(s *sweepSpec, ps []float64) ([][]float64, error) {
	land, err := landscape.NewSinglePeak(s.nu, s.sigma, 1)
	if err != nil {
		return nil, err
	}
	phi, ok := landscape.ClassBased(land)
	if !ok {
		return nil, errors.New("single-peak landscape is not class-based")
	}
	out := make([][]float64, len(ps))
	for i, p := range ps {
		red, err := errorclass.New(phi, p)
		if err != nil {
			return nil, err
		}
		res, err := red.Solve()
		if err != nil {
			return nil, fmt.Errorf("reference at p = %g: %w", p, err)
		}
		out[i] = res.Gamma
	}
	return out, nil
}

// checkGammas counts the points whose Γ misses the reference by more
// than gammaTol in some class.
func checkGammas(gammas, refs [][]float64) int {
	failed := 0
	for i, g := range gammas {
		if len(g) != len(refs[i]) {
			failed++
			continue
		}
		for k := range g {
			if !(math.Abs(g[k]-refs[i][k]) <= gammaTol) {
				logf("point %d: |ΔΓ_%d| = %.3g above %.0e", i, k, math.Abs(g[k]-refs[i][k]), gammaTol)
				failed++
				break
			}
		}
	}
	return failed
}
