package eval

// Tests of the Monte-Carlo robust objective: bit-identity with a serial
// reference loop over per-sample perturbed kernels, the determinism
// matrix (workers × cache × reruns), infeasibility, cutoff indifference,
// kernel recompilation on engine switch, and constructor validation.

import (
	"math"
	"math/rand"
	"testing"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/platform"
)

var robustTestNoise = NoiseModel{
	Kind: NoiseLognormal, ExecSigma: 0.2, DeviceSigma: 0.3, TransferSigma: 0.25, Seed: 11,
}

// robustReference computes the robust tail makespans the slow way: one
// serial pass per perturbed sample engine, then the quantile the
// objective documents.
func robustReference(e *Engine, nm NoiseModel, samples int, tail float64, ops []Op) []float64 {
	n := len(ops)
	vals := make([][]float64, samples)
	for s := 0; s < samples; s++ {
		ref := NewEngineNoise(e.g, e.p, e.orders, nm, s, Options{Workers: 1})
		vals[s] = ref.EvaluateBatch(ops, math.Inf(1))
	}
	tailV := make([]float64, n)
	qi := quantileIndex(tail, samples)
	buf := make([]float64, samples)
	for i := 0; i < n; i++ {
		infeasible := false
		for s := 0; s < samples; s++ {
			v := vals[s][i]
			if v >= Infeasible {
				infeasible = true
				break
			}
			buf[s] = v
		}
		if infeasible {
			tailV[i] = Infeasible
			continue
		}
		// insertion sort into a copy, to stay independent of the
		// implementation's sort
		srt := append([]float64(nil), buf...)
		for a := 1; a < len(srt); a++ {
			for b := a; b > 0 && srt[b] < srt[b-1]; b-- {
				srt[b], srt[b-1] = srt[b-1], srt[b]
			}
		}
		tailV[i] = srt[qi]
	}
	return tailV
}

func TestRobustBatchStatsMatchesSerialReference(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(17))
	g := gen.SeriesParallel(rng, 35, gen.DefaultAttr())
	eng := NewEngineSchedules(g, p, 6, 5, Options{Workers: 4})
	base := mapping.Mapping(make([]int, g.NumTasks()))
	ops := randomOps(rng, g, p, base, 60)

	const samples, tail = 7, 0.9
	want := robustReference(eng, robustTestNoise, samples, tail, ops)

	ro, err := NewRobustObjective(robustTestNoise, samples, tail)
	if err != nil {
		t.Fatal(err)
	}
	// Batch must ignore the caller's cutoff — robust values are always
	// exact.
	for _, cutoff := range []float64{math.Inf(1), 1e-9} {
		out := make([]float64, len(ops))
		ro.Batch(eng, ops, cutoff, out)
		for i := range ops {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("cutoff %v op %d: tail %v != reference %v", cutoff, i, out[i], want[i])
			}
		}
	}
}

// TestRobustDeterminismMatrix: fixed (noise, samples, tail) must give
// bit-identical results across worker counts, cache configurations,
// reruns, and the single-op sample fan-out path.
func TestRobustDeterminismMatrix(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(23))
	g := gen.AlmostSeriesParallel(rng, 30, 15, gen.DefaultAttr())
	base := mapping.Mapping(make([]int, g.NumTasks()))

	var want []float64
	const samples = 5
	for _, workers := range []int{1, 4} {
		for _, cached := range []bool{false, true} {
			for run := 0; run < 2; run++ {
				eng := NewEngineSchedules(g, p, 4, 9, Options{Workers: workers})
				if cached {
					eng = eng.WithCache(NewCache())
				}
				ops := randomOps(rand.New(rand.NewSource(29)), g, p, base, 40)
				ro, err := NewRobustObjective(robustTestNoise, samples, 0.95)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]float64, len(ops))
				ro.Batch(eng, ops, math.Inf(1), out)
				if want == nil {
					want = append([]float64(nil), out...)
					// The degenerate single-op batches must reproduce the
					// full batch values through the sample fan-out path.
					single := make([]float64, 1)
					for i := range ops {
						ro.Batch(eng, ops[i:i+1], math.Inf(1), single)
						if single[0] != out[i] {
							t.Fatalf("single-op %d: %v != batch %v", i, single[0], out[i])
						}
					}
					continue
				}
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Fatalf("workers=%d cached=%v run=%d op %d: %v != %v",
							workers, cached, run, i, out[i], want[i])
					}
				}
			}
		}
	}
}

// TestRobustInfeasible: infeasibility is noise-independent, so an
// overcommitted candidate reports Infeasible.
func TestRobustInfeasible(t *testing.T) {
	p := platform.Reference() // FPGA area capacity 120
	g := graph.New(0, 0)
	a := g.AddTask(graph.Task{Complexity: 2, Area: 100, SourceBytes: 1e6})
	b := g.AddTask(graph.Task{Complexity: 2, Area: 100})
	g.AddEdge(a, b, 1e6)
	eng := NewEngineSchedules(g, p, 0, 0, Options{})
	const fpga = 2
	bad := mapping.New(g.NumTasks(), fpga)
	good := mapping.Mapping(make([]int, g.NumTasks()))

	ro, err := NewRobustObjective(robustTestNoise, 4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	tail := make([]float64, 2)
	ro.Batch(eng, []Op{{Base: bad}, {Base: good}}, math.Inf(1), tail)
	if tail[0] != Infeasible {
		t.Fatalf("infeasible op: tail %v, want Infeasible", tail[0])
	}
	if tail[1] >= Infeasible {
		t.Fatalf("feasible op reported infeasible: tail %v", tail[1])
	}
}

// TestRobustEngineSwitch: reusing one objective against engines with
// different kernels recompiles the sample engines and stays correct.
func TestRobustEngineSwitch(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(31))
	g1 := gen.SeriesParallel(rng, 20, gen.DefaultAttr())
	g2 := gen.SeriesParallel(rng, 25, gen.DefaultAttr())
	e1 := NewEngineSchedules(g1, p, 3, 1, Options{Workers: 2})
	e2 := NewEngineSchedules(g2, p, 5, 9, Options{Workers: 2})

	const samples, tail = 4, 0.75
	ro, err := NewRobustObjective(robustTestNoise, samples, tail)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		eng *Engine
		g   *graph.DAG
	}{{e1, g1}, {e2, g2}, {e1, g1}} {
		ops := randomOps(rng, tc.g, p, mapping.Mapping(make([]int, tc.g.NumTasks())), 15)
		wantTail := robustReference(tc.eng, robustTestNoise, samples, tail, ops)
		out := make([]float64, len(ops))
		ro.Batch(tc.eng, ops, math.Inf(1), out)
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(wantTail[i]) {
				t.Fatalf("engine switch op %d: %v != reference %v", i, out[i], wantTail[i])
			}
		}
	}
}

func TestNewRobustObjectiveValidation(t *testing.T) {
	ok := NoiseModel{Kind: NoiseLognormal, ExecSigma: 0.1}
	cases := []struct {
		name    string
		noise   NoiseModel
		samples int
		tail    float64
		ok      bool
	}{
		{"valid", ok, 8, 0.9, true},
		{"one sample", ok, 1, 0.5, true},
		{"default tail", ok, 4, 0, true},
		{"zero samples", ok, 0, 0.9, false},
		{"negative samples", ok, -3, 0.9, false},
		{"tail 1", ok, 8, 1, false},
		{"tail negative", ok, 8, -0.5, false},
		{"tail nan", ok, 8, math.NaN(), false},
		{"bad noise", NoiseModel{ExecSigma: -1}, 8, 0.9, false},
	}
	for _, tc := range cases {
		ro, err := NewRobustObjective(tc.noise, tc.samples, tc.tail)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if tc.tail == 0 && ro.Tail() != DefaultTail {
			t.Errorf("%s: zero tail resolved to %v, want DefaultTail", tc.name, ro.Tail())
		}
		if ro.Samples() != tc.samples || ro.Noise() != tc.noise {
			t.Errorf("%s: accessors disagree with construction", tc.name)
		}
	}
}
