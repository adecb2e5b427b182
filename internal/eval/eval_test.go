package eval_test

// The engine's correctness argument is bit-identity with the retained
// straightforward simulation (model.Evaluator.ReferenceMakespan). These
// tests cross-check the compiled kernel on random series-parallel,
// almost-series-parallel and workflow-family DAGs, on streaming and
// non-streaming platforms, for random mappings, and verify the cutoff
// and batch contracts. The package is external (eval_test) so it may
// import model, which itself builds on eval.

import (
	"context"
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

// TestEngineCutoffContract pins the single-op entry points to the cutoff
// contract: MakespanCutoff and Evaluate return, bit for bit, the
// reference makespan at or below the cutoff, Infeasible for infeasible
// mappings, and math.Nextafter(cutoff, +Inf) above the cutoff.
func TestEngineCutoffContract(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(11))
	g := gen.SeriesParallel(rng, 60, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p).WithSchedules(20, 5)
	eng := ev.Engine()
	ref := ev.ReferenceMakespan(mapping.Baseline(g, p))
	for i := 0; i < 40; i++ {
		m := randomMapping(rng, g.NumTasks(), p.NumDevices())
		exact := ev.ReferenceMakespan(m)
		scale := exact
		if exact == model.Infeasible {
			scale = ref
		}
		for _, f := range []float64{0.25, 0.5, 0.9, 1.0, 1.1, 2.0} {
			cutoff := scale * f
			want := eval.WantUnder(exact, cutoff)
			for _, got := range []float64{eng.MakespanCutoff(m, cutoff), eng.Evaluate(eval.Op{Base: m}, cutoff)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("mapping %d cutoff %v: got %v, want %v (exact %v)", i, cutoff, got, want, exact)
				}
			}
		}
	}
}

// TestBatchResumeCutoffContract pins every batch entry point to the
// cutoff contract under finite cutoffs: EvaluateBatch, EvaluateBatchCtx
// and the makespan column of EvaluateBatchVec, on Workers 1 and 4, with
// and without a cache, for patched ops sharing one base (the
// prefix-resume path) and for the same candidates as whole mappings (no
// recorded prefix). Every result must equal, bit for bit, the reference
// makespan at or below the cutoff, Infeasible, or
// math.Nextafter(cutoff, +Inf).
func TestBatchResumeCutoffContract(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(13))
	g := gen.AlmostSeriesParallel(rng, 60, 30, gen.DefaultAttr())
	ev := model.NewEvaluator(g, p).WithSchedules(20, 8)
	base := mapping.Baseline(g, p)
	incumbent := ev.ReferenceMakespan(base)

	var ops []eval.Op
	var exact []float64
	for v := 0; v < g.NumTasks(); v++ {
		for d := 0; d < p.NumDevices(); d++ {
			patch := []graph.NodeID{graph.NodeID(v)}
			m := base.Clone().Assign(patch, d)
			ops = append(ops, eval.Op{Base: base, Patch: patch, Device: d}, eval.Op{Base: m})
			x := ev.ReferenceMakespan(m)
			exact = append(exact, x, x)
		}
	}
	for _, workers := range []int{1, 4} {
		plain := ev.Engine().WithWorkers(workers)
		for _, eng := range []*eval.Engine{plain, plain.WithCache(eval.NewCache())} {
			cached := eng.Cache() != nil
			// Loosest cutoff first, so the cached engine later serves exact
			// entries above a tighter cutoff as rejections.
			for _, cutoff := range []float64{incumbent * 1.5, incumbent, incumbent * 0.5} {
				ctxOut, err := eng.EvaluateBatchCtx(context.Background(), ops, cutoff)
				if err != nil {
					t.Fatal(err)
				}
				paths := map[string][]float64{
					"EvaluateBatch":    eng.EvaluateBatch(ops, cutoff),
					"EvaluateBatchCtx": ctxOut,
					"EvaluateBatchVec": eng.EvaluateBatchVec(ops, []eval.Objective{eval.MakespanObjective()}, cutoff)[0],
				}
				for name, got := range paths {
					for i := range ops {
						if want := eval.WantUnder(exact[i], cutoff); math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("%s workers=%d cached=%v cutoff %v op %d: got %v, want %v (exact %v)",
								name, workers, cached, cutoff, i, got[i], want, exact[i])
						}
					}
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
