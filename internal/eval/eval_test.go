package eval_test

// The engine's correctness argument is bit-identity with the retained
// straightforward simulation (model.Evaluator.ReferenceMakespan). These
// tests cross-check the compiled kernel on random series-parallel,
// almost-series-parallel and workflow-family DAGs, on streaming and
// non-streaming platforms, for random mappings, and verify the cutoff
// and batch contracts. The package is external (eval_test) so it may
// import model, which itself builds on eval.

import (
	"math"
	"math/rand"
	"testing"

	"spmap/internal/eval"
	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
	"spmap/internal/wf"
)

// testPlatforms returns the platform spectrum the kernel must handle:
// the paper's heterogeneous reference (streaming + spatial + slotted),
// a single non-streaming CPU, and a non-spatial all-serial pair with an
// area-constrained accelerator (so feasibility checking is exercised on
// a non-streaming device too).
func testPlatforms() map[string]*platform.Platform {
	constrained := &platform.Platform{
		Default: 0,
		Devices: []platform.Device{
			{Name: "cpu", Kind: platform.CPU, Lanes: 8, PeakOps: 80e9, Slots: 2, Bandwidth: 40e9, Latency: 1e-6},
			{Name: "accel", Kind: platform.Accel, Lanes: 64, PeakOps: 500e9, Slots: 1, Area: 40, Bandwidth: 2e9, Latency: 5e-6},
		},
	}
	return map[string]*platform.Platform{
		"reference": platform.Reference(),
		"cpuonly":   platform.CPUOnly(),
		"areapair":  constrained,
	}
}

// testGraphs returns the DAG families of the paper's evaluation.
func testGraphs(t *testing.T) map[string]*graph.DAG {
	t.Helper()
	gs := map[string]*graph.DAG{}
	rng := rand.New(rand.NewSource(7))
	gs["sp30"] = gen.SeriesParallel(rng, 30, gen.DefaultAttr())
	gs["sp80"] = gen.SeriesParallel(rng, 80, gen.DefaultAttr())
	gs["asp40"] = gen.AlmostSeriesParallel(rng, 40, 25, gen.DefaultAttr())
	gs["montage"] = wf.Generate(wf.Montage, 1, rng)
	gs["epigenomics"] = wf.Generate(wf.Epigenomics, 1, rng)
	for name, g := range gs {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return gs
}

func randomMapping(rng *rand.Rand, n, nd int) mapping.Mapping {
	m := make(mapping.Mapping, n)
	for v := range m {
		m[v] = rng.Intn(nd)
	}
	return m
}

func TestEngineMatchesReferenceSimulation(t *testing.T) {
	for pname, p := range testPlatforms() {
		for gname, g := range testGraphs(t) {
			ev := model.NewEvaluator(g, p).WithSchedules(15, 3)
			eng := ev.Engine()
			rng := rand.New(rand.NewSource(int64(len(pname) + len(gname))))
			mappings := []mapping.Mapping{mapping.Baseline(g, p)}
			for i := 0; i < 30; i++ {
				mappings = append(mappings, randomMapping(rng, g.NumTasks(), p.NumDevices()))
			}
			for i, m := range mappings {
				want := ev.ReferenceMakespan(m)
				got := eng.Makespan(m)
				if got != want {
					t.Fatalf("%s/%s mapping %d: engine %v (%x) != reference %v (%x)",
						pname, gname, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if feas := eng.Feasible(m); feas != ev.Feasible(m) {
					t.Fatalf("%s/%s mapping %d: feasibility mismatch", pname, gname, i)
				}
			}
		}
	}
}

func TestEngineCutoffContract(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(11))
	g := gen.SeriesParallel(rng, 60, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p).WithSchedules(20, 5)
	eng := ev.Engine()
	for i := 0; i < 40; i++ {
		m := randomMapping(rng, g.NumTasks(), p.NumDevices())
		exact := ev.ReferenceMakespan(m)
		if exact == model.Infeasible {
			continue
		}
		for _, f := range []float64{0.25, 0.5, 0.9, 1.0, 1.1, 2.0} {
			cutoff := exact * f
			got := eng.MakespanCutoff(m, cutoff)
			if got <= cutoff {
				// At or below the cutoff the result must be exact.
				if got != exact {
					t.Fatalf("mapping %d cutoff %v: got %v, want exact %v", i, cutoff, got, exact)
				}
			} else {
				// Above the cutoff the result is a certificate: the true
				// makespan must indeed exceed the cutoff, and the returned
				// partial value must lower-bound it.
				if exact <= cutoff {
					t.Fatalf("mapping %d cutoff %v: spurious reject (exact %v)", i, cutoff, exact)
				}
				if got > exact {
					t.Fatalf("mapping %d cutoff %v: partial %v exceeds exact %v", i, cutoff, got, exact)
				}
			}
		}
		// A cutoff at exactly the makespan must keep the result exact.
		if got := eng.MakespanCutoff(m, exact); got != exact {
			t.Fatalf("mapping %d: cutoff==makespan returned %v, want %v", i, got, exact)
		}
	}
}

// TestBatchResumeCutoffContract exercises the prefix-resume path (shared
// base + patches) under a finite cutoff: every result at or below the
// cutoff must be bit-identical to the reference simulation, and every
// result above it must correctly certify a reference makespan above the
// cutoff.
func TestBatchResumeCutoffContract(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(13))
	g := gen.AlmostSeriesParallel(rng, 60, 30, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p).WithSchedules(20, 8)
	eng := ev.Engine()
	base := mapping.Baseline(g, p)
	incumbent := ev.ReferenceMakespan(base)

	var ops []eval.Op
	for v := 0; v < g.NumTasks(); v++ {
		for d := 0; d < p.NumDevices(); d++ {
			ops = append(ops, eval.Op{Base: base, Patch: []graph.NodeID{graph.NodeID(v)}, Device: d})
		}
	}
	for _, cutoff := range []float64{incumbent * 0.5, incumbent, incumbent * 1.5} {
		got := eng.EvaluateBatch(ops, cutoff)
		for i, op := range ops {
			exact := ev.ReferenceMakespan(op.Base.Clone().Assign(op.Patch, op.Device))
			if got[i] <= cutoff {
				if got[i] != exact {
					t.Fatalf("cutoff %v op %d: got %v, want exact %v", cutoff, i, got[i], exact)
				}
			} else if exact != model.Infeasible {
				if exact <= cutoff {
					t.Fatalf("cutoff %v op %d: spurious reject %v (exact %v)", cutoff, i, got[i], exact)
				}
				if got[i] > exact {
					t.Fatalf("cutoff %v op %d: partial %v exceeds exact %v", cutoff, i, got[i], exact)
				}
			}
		}
	}
}

func TestEvaluateBatchMatchesSingleEvaluations(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(21))
	g := gen.AlmostSeriesParallel(rng, 50, 20, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p).WithSchedules(10, 9)
	eng := ev.Engine()
	base := mapping.Baseline(g, p)

	var ops []eval.Op
	// Patched ops sharing one base: every (task-pair, device) move.
	for v := 0; v+1 < g.NumTasks(); v += 7 {
		for d := 0; d < p.NumDevices(); d++ {
			ops = append(ops, eval.Op{
				Base:   base,
				Patch:  []graph.NodeID{graph.NodeID(v), graph.NodeID(v + 1)},
				Device: d,
			})
		}
	}
	// Whole-mapping ops.
	for i := 0; i < 10; i++ {
		ops = append(ops, eval.Op{Base: randomMapping(rng, g.NumTasks(), p.NumDevices())})
	}

	for _, workers := range []int{1, 3, 8} {
		got := eng.WithWorkers(workers).EvaluateBatch(ops, math.Inf(1))
		if len(got) != len(ops) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), len(ops))
		}
		for i, op := range ops {
			m := op.Base.Clone().Assign(op.Patch, op.Device)
			if want := ev.ReferenceMakespan(m); got[i] != want {
				t.Fatalf("workers=%d op %d: got %v, want %v", workers, i, got[i], want)
			}
		}
	}
}

func TestEngineInfeasibleMapping(t *testing.T) {
	p := platform.Reference() // FPGA is area-constrained (capacity 120)
	g := graph.New(0, 0)
	a := g.AddTask(graph.Task{Complexity: 2, Area: 100, SourceBytes: 1e6})
	b := g.AddTask(graph.Task{Complexity: 2, Area: 100})
	g.AddEdge(a, b, 1e6)
	eng := model.NewEvaluator(g, p).Engine()
	fpga := 2
	m := mapping.New(g.NumTasks(), fpga)
	if got := eng.Makespan(m); got != eval.Infeasible {
		t.Fatalf("overcommitted FPGA mapping: got %v, want Infeasible", got)
	}
	if eng.Feasible(m) {
		t.Fatal("overcommitted FPGA mapping reported feasible")
	}
	if got := eng.EvaluateBatch([]eval.Op{{Base: m}}, math.Inf(1))[0]; got != eval.Infeasible {
		t.Fatalf("batch: got %v, want Infeasible", got)
	}
}

func TestEngineSchedulesMatchesEvaluatorWithSchedules(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(31))
	g := gen.SeriesParallel(rng, 40, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p).WithSchedules(25, 77)
	eng := eval.NewEngineSchedules(g, p, 25, 77, eval.Options{})
	if eng.NumSchedules() != ev.NumSchedules() {
		t.Fatalf("schedule count %d != %d", eng.NumSchedules(), ev.NumSchedules())
	}
	for i := 0; i < 20; i++ {
		m := randomMapping(rng, g.NumTasks(), p.NumDevices())
		if got, want := eng.Makespan(m), ev.ReferenceMakespan(m); got != want {
			t.Fatalf("mapping %d: %v != %v", i, got, want)
		}
	}
}
