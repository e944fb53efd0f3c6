// Command qsbench is the repository benchmark. It runs one workload for a
// given time and prints, as the last line of its output, one JSON object
// with the end-to-end metrics (--trace 0, measured through the public
// facade) or the per-layer metrics (--trace 1, from a separate run that
// re-drives the same computation through each layer with a timer around
// every call). See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// minUnits is the fewest timed units a run measures, however short
// --seconds is, so that every median has at least three samples.
const minUnits = 3

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "qsbench: "+format+"\n", args...) }

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("qsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured run length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		logf("--trace must be 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if *name == "all" {
		return runAll(stdout, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace))
	}
	w, ok := lookup(*name)
	if !ok {
		logf("unknown workload %q", *name)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	steal0, total0 := cpuSteal()
	res, err := measure(w, o)
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	st := collectStamp()
	st.Workload, st.Seed, st.Seconds, st.Trace = w.name, o.seed, o.seconds, *trace
	st.FailRatio = float64(res.Failed) / float64(res.Attempted)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		st.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	printTable(os.Stderr, w.name, res)
	stampLine, _ := json.Marshal(map[string]any{"stamp": st})
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", stampLine, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs workload w for o.seconds and returns its metrics.
func measure(w workload, o options) (*result, error) {
	in, err := prepare(w, o.seed)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var plain, traced []*unitOut
	var lays []*layers
	for len(plain) < minUnits || time.Now().Before(deadline) {
		runtime.GC()
		u, err := in.untraced()
		if err != nil {
			return nil, err
		}
		plain = append(plain, u)
		if o.trace {
			runtime.GC()
			u, l, err := in.traced()
			if err != nil {
				return nil, err
			}
			traced = append(traced, u)
			lays = append(lays, l)
		}
	}
	res := &result{Correct: true}
	for _, u := range append(plain, traced...) {
		res.Attempted += u.attempted()
		res.Failed += u.failed
		if !sameOutputs(u, plain[0]) {
			logf("outputs differ between runs of the same inputs (traced: %v)", slices.Contains(traced, u))
			res.Correct = false
		}
		if u.counters() != plain[0].counters() {
			logf("counters differ between runs of the same inputs: %+v vs %+v", u.counters(), plain[0].counters())
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if !o.trace {
		res.Metrics = endToEnd(plain)
		return res, nil
	}
	sp, err := split(w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("serial/parallel split: %w", err)
	}
	for _, l := range lays {
		if !l.applyComputed && l.applyCalls != l.matvecs {
			logf("wrapper counted %d applies, solvers reported %d matvecs", l.applyCalls, l.matvecs)
			res.Correct = false
		}
	}
	res.Metrics = perLayer(in.dim(), plain, traced, lays, sp)
	return res, nil
}

// inputs is a workload with its generated inputs.
type inputs struct {
	w     workload
	seeds []uint64    // solve workloads
	ps    []float64   // sweep workloads
	refs  [][]float64 // exact Γ per sweep point
}

func prepare(w workload, seed uint64) (*inputs, error) {
	in := &inputs{w: w}
	if w.solve != nil {
		in.seeds = w.solve.landscapeSeeds(seed)
		return in, nil
	}
	in.ps = w.sweep.grid(seed)
	var err error
	in.refs, err = references(w.sweep, in.ps)
	return in, err
}

func (in *inputs) dim() int {
	if in.w.solve != nil {
		return 1 << in.w.solve.nu
	}
	return 1 << in.w.sweep.nu
}

func (in *inputs) untraced() (*unitOut, error) {
	if in.w.solve != nil {
		return solveFacade(in.w.solve, in.seeds)
	}
	return sweepFacade(in.w.sweep, in.ps, in.refs)
}

func (in *inputs) traced() (*unitOut, *layers, error) {
	if in.w.solve != nil {
		return solveTraced(in.w.solve, in.seeds)
	}
	u, l, err := sweepTraced(in.w.sweep, in.ps)
	if err == nil && u.failed == 0 {
		u.failed = checkGammas(u.gammas, in.refs)
	}
	return u, l, err
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd reports medians over the run. solve_max_s is the slowest solve
// or sweep point, each at its median latency over the units: the slowest
// input is what a user waits for, and the per-input median keeps one slow
// repeat of some other input from standing in for it.
func endToEnd(units []*unitOut) map[string]metric {
	var walls, setups, lats []float64
	perInput := make([][]float64, len(units[0].lats))
	for _, u := range units {
		walls = append(walls, u.wall)
		setups = append(setups, u.setups...)
		lats = append(lats, u.lats...)
		for i, v := range u.lats {
			perInput[i] = append(perInput[i], v)
		}
	}
	slowest := 0.0
	for _, v := range perInput {
		slowest = max(slowest, median(v))
	}
	return map[string]metric{
		"wall_s":       {median(walls), "s"},
		"setup_s":      {median(setups), "s"},
		"solve_p50_s":  {median(lats), "s"},
		"solve_max_s":  {slowest, "s"},
		"peak_rss_mib": {peakRSSMiB(), "MiB"},
	}
}

// perLayer averages the traced units' layer times (means keep the layer
// times summing to the traced wall time) and adds the exact counters, the
// serial/parallel split and the BLAS-1 microbenchmarks.
func perLayer(n int, plain, traced []*unitOut, lays []*layers, sp splitResult) map[string]metric {
	var l layers
	var plainWalls, tracedWalls []float64
	k := 1 / float64(len(lays))
	for _, x := range lays {
		l.addScaled(&x.acc, k)
		l.wall += k * x.wall
		l.applyThread += k * x.applyThread
		l.batchBusy += k * x.batchBusy
		l.batchRun += k * x.batchRun
		l.batchSelf += k * x.batchSelf
		tracedWalls = append(tracedWalls, x.wall)
	}
	for _, u := range plain {
		plainWalls = append(plainWalls, u.wall)
	}
	// Counts are per unit; addScaled summed them over the units.
	first := lays[0]
	c := traced[0].counters()
	idle := 0.0
	if first.batchRun > 0 {
		idle = 1 - l.batchBusy/(float64(first.batchWorkers)*l.batchRun)
	}
	calls := float64(first.applyCalls)
	m := map[string]metric{
		"mutation.apply_calls":    {calls, "count"},
		"mutation.apply_s":        {l.apply, "s"},
		"mutation.apply_gbps_min": {calls * 16 * float64(n) / l.applyThread / 1e9, "GB/s"},
		"core.solve_s":            {l.solve, "s"},
		"core.self_s":             {l.solve - l.apply, "s"},
		"core.iter_over_apply":    {l.solve / l.apply, "ratio"},
		"core.iterations":         {float64(c.iterations), "count"},
		"core.matvecs":            {float64(first.matvecs), "count"},
		"core.max_point_matvecs":  {float64(c.maxPoint), "count"},
		"core.gear.power":         {float64(c.power), "count"},
		"core.gear.chebyshev":     {float64(c.chebyshev), "count"},
		"core.gear.shiftinvert":   {float64(c.shiftinv), "count"},
		"core.escalations":        {float64(first.escalations), "count"},
		"core.operator_build_s":   {l.opBuild, "s"},
		"core.start_vector_s":     {l.startVec, "s"},
		"core.lambda_ulps_w1_w2":  {sp.ulps, "ulp"},
		"device.apply_speedup_w2": {sp.speedup, "ratio"},
		"harness.point_build_s":   {l.pointBuild, "s"},
		"harness.post_s":          {l.post, "s"},
		"harness.warm_points":     {float64(c.warm), "count"},
		"batch.chains":            {float64(first.chains), "count"},
		"batch.busy_s":            {l.batchBusy, "s"},
		"batch.self_s":            {l.batchSelf, "s"},
		"batch.idle_frac":         {idle, "ratio"},
		"trace.wall_s":            {l.wall, "s"},
		"trace.unattributed_s":    {l.unattributed(), "s"},
		"trace.overhead_frac":     {median(tracedWalls)/median(plainWalls) - 1, "ratio"},
	}
	for name, v := range micro(n) {
		m[name] = v
	}
	return m
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %g kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return math.NaN()
}

func printTable(out io.Writer, name string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	fmt.Fprintf(out, "%s: correct=%v attempted=%d failed=%d fail_ratio=%g\n",
		name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, k := range names {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// runAll runs every workload in its own child process, one after the
// other (so each reports its own peak RSS), and prints every metric with
// its unit. It fails if any workload fails or is incorrect.
func runAll(stdout io.Writer, args ...string) int {
	exe, err := os.Executable()
	if err != nil {
		logf("%v", err)
		return 1
	}
	rc := 0
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(exe, append([]string{"--workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = &buf, os.Stderr
		if err := cmd.Run(); err != nil {
			logf("%s: %v", w.name, err)
			rc = 1
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			logf("%s: no result: %v", w.name, err)
			rc = 1
			continue
		}
		printTable(stdout, w.name, &res)
	}
	return rc
}
