package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// shortened returns the workload at a small chain length, for the
// self-test: the same code paths in milliseconds instead of seconds.
func (w workload) shortened() workload {
	if w.solve != nil {
		s := *w.solve
		s.nu, s.perUnit = 12, 2
		w.solve = &s
	} else {
		s := *w.sweep
		s.nu -= 6
		w.sweep = &s
	}
	return w
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	for _, ws := range s.Workloads {
		if _, ok := lookup(ws.Name); !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", ws.Name)
		}
	}
	return s
}

// TestShortWorkloads drives every workload of the program, including
// those BENCHMARK.json leaves out, at a small chain length, untraced and
// traced, and checks that it is correct and prints exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestShortWorkloads(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		w = w.shortened()
		for _, trace := range []bool{false, true} {
			res, err := measure(w, options{seed: 3, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				v := func(k string) float64 { return res.Metrics[k].Value }
				sum := v("core.solve_s") + v("core.operator_build_s") + v("core.start_vector_s") +
					v("harness.point_build_s") + v("harness.post_s") + v("batch.self_s") + v("trace.unattributed_s")
				if math.Abs(sum-v("trace.wall_s")) > 1e-9 {
					t.Errorf("%s: layer times sum to %v, traced wall is %v", w.name, sum, v("trace.wall_s"))
				}
			}
		}
	}
}

// TestTracedMatchesFacade checks that the traced re-drive computes
// bit-identical λ and Γ, and the same counters, as the facade.
func TestTracedMatchesFacade(t *testing.T) {
	for _, w := range workloads {
		w = w.shortened()
		in, err := prepare(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := in.untraced()
		if err != nil {
			t.Fatal(err)
		}
		traced, _, err := in.traced()
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutputs(plain, traced) {
			t.Errorf("%s: traced outputs differ from the facade's", w.name)
		}
		if plain.counters() != traced.counters() {
			t.Errorf("%s: counters %+v (facade) vs %+v (traced)", w.name, plain.counters(), traced.counters())
		}
	}
}
