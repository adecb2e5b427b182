// Benchmarks regenerating the paper's figures and tables (one bench per
// experiment; run `go test -bench=. -benchmem`) plus micro-benchmarks of
// the core machinery. The per-figure benches execute a reduced quick
// profile per iteration and print the reproduced series via b.Log on the
// first iteration; cmd/spmap-bench is the full console harness.
package spmap_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"spmap"
	"spmap/internal/eval"
	"spmap/internal/experiments"
	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mappers/decomp"
	"spmap/internal/mappers/ga"
	"spmap/internal/mappers/heft"
	"spmap/internal/mappers/localsearch"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/pareto"
	"spmap/internal/platform"
	"spmap/internal/portfolio"
	"spmap/internal/sp"
)

// benchCfg is a minimal profile so `go test -bench=.` stays tractable.
func benchCfg() experiments.Config {
	return experiments.Config{
		GraphsPerPoint: 2,
		Schedules:      10,
		GAGenerations:  30,
		MILPTimeLimit:  500 * time.Millisecond,
		Seed:           1,
	}
}

func logTable(b *testing.B, t *experiments.Table) {
	b.Helper()
	logReport(b, t.Report())
}

func logReport(b *testing.B, r experiments.Report) {
	b.Helper()
	var sb strings.Builder
	if err := r.Text(&sb); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + sb.String())
}

func BenchmarkFig3MILPsVsDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig3(benchCfg())
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig4ListSchedulingVsDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig4(benchCfg())
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig5GeneticVsFirstFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig5(benchCfg())
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig6GenerationsTradeoff(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t := experiments.Fig6(cfg)
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig7AlmostSeriesParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig7(benchCfg())
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkTable1Workflows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(benchCfg())
		if i == 0 {
			logReport(b, experiments.Report{ID: "table1", Title: "WfCommons-like benchmark sets", Rows: rows})
		}
	}
}

func BenchmarkAblationCutPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.CutPolicyAblation(benchCfg())
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkAblationGamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.GammaAblation(benchCfg())
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkAblationScheduleCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.ScheduleCountAblation(benchCfg())
		if i == 0 {
			logTable(b, t)
		}
	}
}

// --- micro-benchmarks of the core machinery ---

func benchGraph(n int) *spmap.DAG {
	rng := rand.New(rand.NewSource(1))
	return gen.SeriesParallel(rng, n, gen.DefaultAttr())
}

func BenchmarkEvaluatorMakespanBFS100(b *testing.B) {
	g := benchGraph(100)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p)
	m := mapping.Baseline(g, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Makespan(m)
	}
}

func BenchmarkEvaluator101Schedules100(b *testing.B) {
	g := benchGraph(100)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(100, 1)
	m := mapping.Baseline(g, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Makespan(m)
	}
}

func BenchmarkDecomposeSP200(b *testing.B) {
	g := benchGraph(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Decompose(g, sp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecomposeAlmostSP200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := gen.AlmostSeriesParallel(rng, 200, 100, gen.DefaultAttr())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Decompose(g, sp.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMapper(b *testing.B, n int, strat decomp.Strategy, h decomp.Heuristic) {
	g := benchGraph(n)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decomp.MapWithEvaluator(ev, decomp.Options{Strategy: strat, Heuristic: h}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapSingleNodeBasic100(b *testing.B) {
	benchMapper(b, 100, decomp.SingleNode, decomp.Basic)
}

func BenchmarkMapSeriesParallelBasic100(b *testing.B) {
	benchMapper(b, 100, decomp.SeriesParallel, decomp.Basic)
}

func BenchmarkMapSNFirstFit100(b *testing.B) {
	benchMapper(b, 100, decomp.SingleNode, decomp.FirstFit)
}

func BenchmarkMapSPFirstFit100(b *testing.B) {
	benchMapper(b, 100, decomp.SeriesParallel, decomp.FirstFit)
}

func BenchmarkMapHEFT100(b *testing.B) {
	g := benchGraph(100)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heft.MapWithEvaluator(ev, heft.HEFT)
	}
}

func BenchmarkMapPEFT100(b *testing.B) {
	g := benchGraph(100)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heft.MapWithEvaluator(ev, heft.PEFT)
	}
}

func BenchmarkMapNSGAII100Gen50(b *testing.B) {
	g := benchGraph(100)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ga.MapWithEvaluator(ev, ga.Options{Generations: 50, Seed: int64(i)})
	}
}

// Local-search benchmarks: end-to-end mapper runs under the paper's
// 101-schedule protocol at a fixed engine-evaluation budget, plus the
// GA at the same budget (default population x 50 generations + the
// initial population = 5100 evaluations) for the equal-budget
// comparison that BENCH_PR2.json records.

const equalBudget = ga.DefaultPopulation * 51

func benchLocalSearch(b *testing.B, n int, alg localsearch.Algorithm) {
	g := benchGraph(n)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(100, 1)
	ev.Makespan(mapping.Baseline(g, p)) // compile the kernel outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
			Algorithm: alg, Seed: 1, Budget: equalBudget,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapAnneal50(b *testing.B)     { benchLocalSearch(b, 50, localsearch.Anneal) }
func BenchmarkMapAnneal100(b *testing.B)    { benchLocalSearch(b, 100, localsearch.Anneal) }
func BenchmarkMapAnneal250(b *testing.B)    { benchLocalSearch(b, 250, localsearch.Anneal) }
func BenchmarkMapHillClimb50(b *testing.B)  { benchLocalSearch(b, 50, localsearch.HillClimb) }
func BenchmarkMapHillClimb100(b *testing.B) { benchLocalSearch(b, 100, localsearch.HillClimb) }
func BenchmarkMapHillClimb250(b *testing.B) { benchLocalSearch(b, 250, localsearch.HillClimb) }

// BenchmarkMapNSGAIIEqualBudget100 is the GA at exactly the
// local-search benchmarks' evaluation budget — the ns/op ratio against
// BenchmarkMapAnneal100 / BenchmarkMapHillClimb100 is the wall-clock
// price of one evaluation budget under either metaheuristic.
func BenchmarkMapNSGAIIEqualBudget100(b *testing.B) {
	g := benchGraph(100)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(100, 1)
	ev.Makespan(mapping.Baseline(g, p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ga.MapWithEvaluator(ev, ga.Options{Generations: equalBudget/ga.DefaultPopulation - 1, Seed: 1})
	}
}

// BenchmarkRefineSPFirstFit100 measures the refinement pass alone on a
// decomposition mapping (half the equal budget, as in the experiments).
func BenchmarkRefineSPFirstFit100(b *testing.B) {
	g := benchGraph(100)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(100, 1)
	m, _, err := decomp.MapWithEvaluator(ev, decomp.Options{
		Strategy: decomp.SeriesParallel, Heuristic: decomp.FirstFit,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := localsearch.Refine(ev, m, localsearch.Options{Seed: 1, Budget: equalBudget / 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateSP200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		gen.SeriesParallel(rng, 200, gen.DefaultAttr())
	}
}

// --- evaluation-engine benchmarks (the BENCH_*.json perf trajectory) ---
//
// The three families below anchor the before/after comparison across
// PRs: single Makespan evaluation under the paper's 101-schedule
// protocol, one batched neighborhood re-evaluation with the incumbent
// as cutoff, and the end-to-end series-parallel Basic mapper.

func benchmarkMakespan101(b *testing.B, n int) {
	g := benchGraph(n)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(100, 1)
	m := mapping.Baseline(g, p)
	ev.Makespan(m) // compile the kernel outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Makespan(m)
	}
}

func BenchmarkMakespan50(b *testing.B)  { benchmarkMakespan101(b, 50) }
func BenchmarkMakespan100(b *testing.B) { benchmarkMakespan101(b, 100) }
func BenchmarkMakespan250(b *testing.B) { benchmarkMakespan101(b, 250) }

func benchmarkEvaluateBatch(b *testing.B, n int) {
	g := benchGraph(n)
	p := platform.Reference()
	eng := model.NewEvaluator(g, p).WithSchedules(100, 1).Engine()
	base := mapping.Baseline(g, p)
	// The single-task move neighborhood of the baseline, evaluated
	// against the incumbent — the decomposition mappers' hot loop.
	var ops []eval.Op
	for v := 0; v < g.NumTasks(); v++ {
		for d := 0; d < p.NumDevices(); d++ {
			ops = append(ops, eval.Op{Base: base, Patch: []graph.NodeID{graph.NodeID(v)}, Device: d})
		}
	}
	incumbent := eng.Makespan(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.EvaluateBatch(ops, incumbent)
	}
}

func BenchmarkEvaluateBatch50(b *testing.B)  { benchmarkEvaluateBatch(b, 50) }
func BenchmarkEvaluateBatch100(b *testing.B) { benchmarkEvaluateBatch(b, 100) }
func BenchmarkEvaluateBatch250(b *testing.B) { benchmarkEvaluateBatch(b, 250) }

func benchmarkMapSeriesParallelE2E(b *testing.B, n int) {
	g := benchGraph(n)
	p := platform.Reference()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// End to end: evaluator + kernel compilation and the full Basic
		// mapper under the paper's 101-schedule protocol.
		ev := model.NewEvaluator(g, p).WithSchedules(100, 1)
		if _, _, err := decomp.MapWithEvaluator(ev, decomp.Options{
			Strategy: decomp.SeriesParallel, Heuristic: decomp.Basic,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapSeriesParallelE2E50(b *testing.B)  { benchmarkMapSeriesParallelE2E(b, 50) }
func BenchmarkMapSeriesParallelE2E100(b *testing.B) { benchmarkMapSeriesParallelE2E(b, 100) }
func BenchmarkMapSeriesParallelE2E250(b *testing.B) { benchmarkMapSeriesParallelE2E(b, 250) }

// --- multi-objective benchmarks (BENCH_PR3.json) ---
//
// benchmarkEvaluateBatchVecEnergy is benchmarkEvaluateBatch with the
// fused (makespan, energy) columns: the ns/op delta against
// BenchmarkEvaluateBatch<n> is the marginal cost of the engine-level
// energy objective.

func benchmarkEvaluateBatchVecEnergy(b *testing.B, n int) {
	g := benchGraph(n)
	p := platform.Reference()
	eng := model.NewEvaluator(g, p).WithSchedules(100, 1).Engine()
	base := mapping.Baseline(g, p)
	var ops []eval.Op
	for v := 0; v < g.NumTasks(); v++ {
		for d := 0; d < p.NumDevices(); d++ {
			ops = append(ops, eval.Op{Base: base, Patch: []graph.NodeID{graph.NodeID(v)}, Device: d})
		}
	}
	objs := []eval.Objective{eval.MakespanObjective(), eval.EnergyObjective()}
	incumbent := eng.Makespan(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.EvaluateBatchVec(ops, objs, incumbent)
	}
}

func BenchmarkEvaluateBatchVecEnergy50(b *testing.B)  { benchmarkEvaluateBatchVecEnergy(b, 50) }
func BenchmarkEvaluateBatchVecEnergy100(b *testing.B) { benchmarkEvaluateBatchVecEnergy(b, 100) }
func BenchmarkEvaluateBatchVecEnergy250(b *testing.B) { benchmarkEvaluateBatchVecEnergy(b, 250) }

// benchmarkEngineEnergy times the standalone energy objective (one
// O(n) table pass plus the feasibility scan).
func benchmarkEngineEnergy(b *testing.B, n int) {
	g := benchGraph(n)
	p := platform.Reference()
	eng := model.NewEvaluator(g, p).WithSchedules(100, 1).Engine()
	m := mapping.Baseline(g, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Energy(m)
	}
}

func BenchmarkEngineEnergy50(b *testing.B)  { benchmarkEngineEnergy(b, 50) }
func BenchmarkEngineEnergy100(b *testing.B) { benchmarkEngineEnergy(b, 100) }
func BenchmarkEngineEnergy250(b *testing.B) { benchmarkEngineEnergy(b, 250) }

// benchmarkMapParetoSweep runs the weighted-sweep driver at the equal-
// budget anchor (split across the default weights) under the paper's
// 101-schedule protocol.
func benchmarkMapParetoSweep(b *testing.B, n int) {
	g := benchGraph(n)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(100, 1)
	ev.Makespan(mapping.Baseline(g, p)) // compile outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pareto.WeightedSweep(ev, pareto.SweepOptions{
			Seed: 1, Budget: equalBudget / len(pareto.DefaultWeights),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapParetoSweep50(b *testing.B)  { benchmarkMapParetoSweep(b, 50) }
func BenchmarkMapParetoSweep100(b *testing.B) { benchmarkMapParetoSweep(b, 100) }
func BenchmarkMapParetoSweep250(b *testing.B) { benchmarkMapParetoSweep(b, 250) }

// BenchmarkMapParetoNSGA2EqualBudget100 is the two-objective NSGA-II
// at the same total evaluation budget as the sweep benchmarks.
func BenchmarkMapParetoNSGA2EqualBudget100(b *testing.B) {
	g := benchGraph(100)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(100, 1)
	ev.Makespan(mapping.Baseline(g, p))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ga.MapParetoWithEvaluator(ev, ga.ParetoOptions{
			Generations: equalBudget/ga.DefaultPopulation - 1, Seed: 1,
		})
	}
}

// Portfolio benchmarks: the full racing portfolio at the equal-budget
// anchor under the paper's 101-schedule protocol, with and without the
// shared evaluation cache — the ns/op ratio is the wall-clock saving
// cross-mapper memoization buys (results are bit-identical either way;
// BENCH_PR4.json records the numbers).

func benchmarkMapPortfolio(b *testing.B, n int, disableCache bool) {
	g := benchGraph(n)
	p := platform.Reference()
	ev := model.NewEvaluator(g, p).WithSchedules(100, 1)
	ev.Makespan(mapping.Baseline(g, p)) // compile the kernel outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := portfolio.MapWithEvaluator(ev, portfolio.Options{
			Seed: 1, Budget: equalBudget, DisableCache: disableCache,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapPortfolio50(b *testing.B)         { benchmarkMapPortfolio(b, 50, false) }
func BenchmarkMapPortfolio100(b *testing.B)        { benchmarkMapPortfolio(b, 100, false) }
func BenchmarkMapPortfolio250(b *testing.B)        { benchmarkMapPortfolio(b, 250, false) }
func BenchmarkMapPortfolioNoCache50(b *testing.B)  { benchmarkMapPortfolio(b, 50, true) }
func BenchmarkMapPortfolioNoCache100(b *testing.B) { benchmarkMapPortfolio(b, 100, true) }
func BenchmarkMapPortfolioNoCache250(b *testing.B) { benchmarkMapPortfolio(b, 250, true) }

// BenchmarkEvaluateBatchCached100 re-evaluates one warm neighborhood
// batch through the memoizing cache — the engine-level upper bound of
// the cache's saving (every op a hit).
func BenchmarkEvaluateBatchCached100(b *testing.B) {
	g := benchGraph(100)
	p := platform.Reference()
	eng := spmap.NewEngine(g, p, 100, 1).WithCache(eval.NewCache())
	base := mapping.Baseline(g, p)
	var ops []eval.Op
	patches := make([]graph.NodeID, g.NumTasks())
	for v := 0; v < g.NumTasks(); v++ {
		patches[v] = graph.NodeID(v)
		for d := 0; d < p.NumDevices(); d++ {
			if d != base[v] {
				ops = append(ops, eval.Op{Base: base, Patch: patches[v : v+1], Device: d})
			}
		}
	}
	eng.EvaluateBatch(ops, math.Inf(1)) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.EvaluateBatch(ops, math.Inf(1))
	}
}

// Online replay benchmarks: a mixed 6-event scenario replayed against a
// live instance under the paper's 101-schedule protocol, warm-start
// repair vs cold per-event re-mapping at the same per-event budget —
// the wall-clock counterpart of the quality comparison in
// BENCH_PR5.json (warm is never worse on the seed graphs and spends
// less simulation time per event because the incumbent seeds the
// search).

func benchmarkReplay(b *testing.B, n int, cold bool) {
	g := benchGraph(n)
	p := platform.Reference()
	sc := spmap.NewScenario(rand.New(rand.NewSource(2)), spmap.ScenarioOptions{Events: 6})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spmap.Replay(g, p, sc, spmap.OnlineOptions{
			Schedules: 100, Seed: 1, RepairBudget: 2000, Cold: cold,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- incremental-session benchmarks (BENCH_PR6.json) ---
//
// One steady-state session move under the paper's 101-schedule
// protocol. Evaluate<n> is the pure candidate-rejection path (cutoff =
// incumbent, nothing applied): the critical-path pre-check, preLB and
// bounded resumed replays. Move<n> interleaves one Apply every 8
// candidates, so its folds (the recording rebase from the first moved
// position) are amortized into the per-move cost the way a real search
// pays them. Run with
// -benchmem: the scratch-reuse audit pins 0 allocs/op for both.

func benchmarkIncrementalSession(b *testing.B, n, acceptEvery int) {
	g := benchGraph(n)
	p := platform.Reference()
	eng := model.NewEvaluator(g, p).WithSchedules(100, 1).Engine().WithWorkers(1)
	inc := eng.Incremental(mapping.Baseline(g, p), nil)
	defer inc.Close()
	cur := inc.Makespan()
	nd := p.NumDevices()
	patch := make([]graph.NodeID, 1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		patch[0] = graph.NodeID(rng.Intn(n))
		dev := rng.Intn(nd)
		inc.Evaluate(patch, dev, cur)
		if acceptEvery > 0 && i%acceptEvery == acceptEvery-1 {
			inc.Apply(patch, dev)
			cur = inc.Makespan() // track the moving incumbent exactly
		}
	}
}

func BenchmarkIncrementalEvaluate50(b *testing.B)  { benchmarkIncrementalSession(b, 50, 0) }
func BenchmarkIncrementalEvaluate100(b *testing.B) { benchmarkIncrementalSession(b, 100, 0) }
func BenchmarkIncrementalEvaluate250(b *testing.B) { benchmarkIncrementalSession(b, 250, 0) }
func BenchmarkIncrementalMove50(b *testing.B)      { benchmarkIncrementalSession(b, 50, 8) }
func BenchmarkIncrementalMove100(b *testing.B)     { benchmarkIncrementalSession(b, 100, 8) }
func BenchmarkIncrementalMove250(b *testing.B)     { benchmarkIncrementalSession(b, 250, 8) }

func BenchmarkReplayWarm50(b *testing.B)  { benchmarkReplay(b, 50, false) }
func BenchmarkReplayCold50(b *testing.B)  { benchmarkReplay(b, 50, true) }
func BenchmarkReplayWarm100(b *testing.B) { benchmarkReplay(b, 100, false) }
func BenchmarkReplayCold100(b *testing.B) { benchmarkReplay(b, 100, true) }
func BenchmarkReplayPortfolioRepair50(b *testing.B) {
	g := benchGraph(50)
	p := platform.Reference()
	sc := spmap.NewScenario(rand.New(rand.NewSource(2)), spmap.ScenarioOptions{Events: 6})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spmap.Replay(g, p, sc, spmap.OnlineOptions{
			Schedules: 100, Seed: 1, RepairBudget: 2000, Repair: spmap.RepairPortfolio,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
