// Package spmap is a Go library for static task mapping on heterogeneous
// platforms (CPU + GPU + FPGA), reproducing "Static task mapping for
// heterogeneous systems based on series-parallel decompositions" (Wilhelm
// & Pionteck, IPPS 2025, arXiv:2502.19745).
//
// The package is a facade over the internal implementation packages. A
// typical session builds a task graph, picks a platform, and runs one of
// the mapping algorithms:
//
//	g := spmap.NewDAG()
//	a := g.AddTask(spmap.Task{Name: "load", Complexity: 4, Parallelizability: 1, Streamability: 8, Area: 4, SourceBytes: 100e6})
//	b := g.AddTask(spmap.Task{Name: "filter", Complexity: 9, Parallelizability: 0.8, Streamability: 12, Area: 9})
//	g.AddEdge(a, b, 100e6)
//
//	p := spmap.ReferencePlatform()
//	m, stats, err := spmap.MapSeriesParallel(g, p, spmap.FirstFit)
//	...
//	ev := spmap.NewEvaluator(g, p).WithSchedules(100, 1)
//	fmt.Println("makespan:", ev.Makespan(m), "improvement:", spmap.Improvement(ev, m))
//
// The mapping algorithms:
//
//   - MapSingleNode / MapSeriesParallel — the paper's decomposition-based
//     mappers (§III), in Basic, GammaThreshold and FirstFit variants.
//   - MapHEFT / MapPEFT — the list-scheduling baselines.
//   - MapGenetic — the single-objective NSGA-II baseline.
//   - MapLocalSearch — metaheuristic extension beyond the paper:
//     simulated annealing or a batched large-neighborhood hill-climber
//     over device assignments, driven by the evaluation engine's batch
//     prefix-resume path.
//   - Refine — local-search polishing of any other mapper's output
//     (decomposition, HEFT/PEFT, GA); never returns a worse mapping.
//   - MapPareto — multi-objective (makespan x energy) mapping beyond
//     the paper (§II-A sketches the transfer): a weighted local-search
//     sweep or a true two-objective NSGA-II over the engine's
//     (makespan, energy) batch path, returning a bounded ε-dominance
//     Pareto front of time/energy trade-offs.
//   - MapPortfolio — algorithm racing beyond the paper: the whole
//     mapper portfolio (decomposition+refine, HEFT/PEFT+refine,
//     annealing, hill climbing, GA) runs concurrently under one shared
//     evaluation budget with a shared memoizing evaluation cache,
//     cross-pollination of the incumbent best mapping, and budget
//     stealing from stalled members — deterministic for a fixed Seed
//     regardless of Workers. Every race reports a certified makespan
//     lower bound and optimality gap (CertifyLowerBound, OptimalityGap)
//     and can terminate early once the gap reaches
//     PortfolioOptions.GapTarget.
//   - MapMILP — the ZhouLiu / WGDP-Device / WGDP-Time integer programs
//     solved by the built-in branch-and-bound solver.
//
// Series-parallel machinery (decomposition forests for arbitrary DAGs,
// paper Alg. 1) is exposed via Decompose and IsSeriesParallel.
//
// # Online replay
//
// Beyond the paper's static setting, Replay runs a deterministic
// scenario — device failures, device degradation, series-parallel
// subgraph arrivals and departures (NewScenario) — against a live
// instance: after each event the evaluation kernel is rebuilt, the
// incumbent mapping is migrated (evictions, SPFF placement of arrivals)
// and repaired with a budgeted warm-start pass that is never worse than
// re-mapping from scratch at the same budget. The replay trace is
// byte-identical for any Workers value, with the evaluation cache on or
// off (OnlineStats.Trace).
//
// Live replay state checkpoints and resumes: NewOnlineInstance/Step
// drive a replay one event at a time, OnlineSnapshot captures it as a
// versioned byte-stable blob, RestoreInstance rebuilds it (kernels and
// caches recompiled fresh) and the resumed trace is byte-identical to
// an uninterrupted run. RunFleet scales this to many streams sharded
// across workers with periodic checkpoints into a pluggable FleetStore
// and verifiable crash-resume.
//
// # Evaluation engine
//
// All makespan evaluation runs on a compiled evaluation engine
// (internal/eval): the schedule orders and the graph's in-edges are
// flattened into contiguous CSR-style arrays once per evaluator, each
// schedule simulation aborts as soon as its partial makespan can no
// longer become the schedule-set minimum, and batches of candidate
// mappings are evaluated across a worker pool. Results are bit-identical
// to the straightforward simulation, so the greedy mappers' deterministic
// termination guarantee (§III-A) is unaffected.
//
// Concurrency contract: an Evaluator is single-goroutine (it keeps
// scratch buffers; use Clone per goroutine), while an Engine — obtained
// via NewEngine or Evaluator.Engine — is immutable and safe for
// concurrent use from any number of goroutines. Engine.EvaluateBatch
// returns index-aligned results, so reductions over a batch are
// deterministic regardless of scheduling; the decomposition mappers,
// the GA and the local-search mappers evaluate their candidate sets
// this way by default. In particular, every stochastic mapper
// (MapGenetic, MapLocalSearch, Refine) is reproducible: a fixed Seed
// yields an identical mapping and stats for any Workers value.
//
// Single-objective local search and the GammaThreshold/FirstFit
// look-ahead loop of the decomposition mappers additionally evaluate
// through Engine.Incremental (package eval): a long-lived session that
// records the incumbent's simulation once and then serves each
// candidate move in O(changed window) — capacity lower bounds, resumed
// replays with fast-forward reconvergence, and lazy in-place repair on
// accepted moves — with results bit-identical to Engine.Makespan on the
// materialized mapping and zero steady-state allocations. Batches and
// sessions are the engine's only two ways of scoring a candidate. The
// session is an engine-internal fast path: it changes no spmap-level
// API or result, only the wall-clock cost of MapLocalSearch, Refine,
// the SP/single-node FirstFit and GammaThreshold mappers and the repair
// passes built on them.
package spmap

import (
	"io"
	"math/rand"
	"time"

	"spmap/internal/bounds"
	"spmap/internal/eval"
	"spmap/internal/fleet"
	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mappers/decomp"
	"spmap/internal/mappers/ga"
	"spmap/internal/mappers/heft"
	"spmap/internal/mappers/localsearch"
	"spmap/internal/mapping"
	"spmap/internal/milp"
	"spmap/internal/model"
	"spmap/internal/online"
	"spmap/internal/pareto"
	"spmap/internal/platform"
	"spmap/internal/portfolio"
	"spmap/internal/service"
	"spmap/internal/sp"
	"spmap/internal/wf"
)

// Core graph types.
type (
	// DAG is a directed acyclic task graph.
	DAG = graph.DAG
	// Task is a node of the task graph with its cost-model attributes.
	Task = graph.Task
	// Edge is a data dependency carrying a byte volume.
	Edge = graph.Edge
	// NodeID identifies a task within a DAG.
	NodeID = graph.NodeID
)

// Platform types.
type (
	// Platform is a set of heterogeneous devices.
	Platform = platform.Platform
	// Device is one processing unit.
	Device = platform.Device
	// DeviceKind classifies devices (CPU, GPU, FPGA, Accel).
	DeviceKind = platform.Kind
)

// Device kinds.
const (
	CPU   = platform.CPU
	GPU   = platform.GPU
	FPGA  = platform.FPGA
	Accel = platform.Accel
)

// Mapping assigns each task to a device index.
type Mapping = mapping.Mapping

// Evaluator is the model-based cost function (makespan of a mapping).
type Evaluator = model.Evaluator

// Engine is the compiled, concurrency-safe evaluation engine behind the
// cost function: single evaluations with optional cutoff-bounded early
// exit plus batch evaluation over an internal worker pool.
type Engine = eval.Engine

// EngineOp is one request of an Engine.EvaluateBatch call: the Base
// mapping with the tasks in Patch remapped to Device (nil Patch
// evaluates Base as-is).
type EngineOp = eval.Op

// Series-parallel machinery.
type (
	// SPTree is a series-parallel decomposition tree.
	SPTree = sp.Tree
	// SPForest is a forest of decomposition trees for a general DAG.
	SPForest = sp.Forest
	// Subgraph is a node set considered for joint remapping.
	Subgraph = sp.Subgraph
	// CutPolicy selects the deadlock cut heuristic of the decomposition.
	CutPolicy = sp.CutPolicy
)

// Cut policies for the decomposition of non-series-parallel DAGs.
const (
	CutRandom   = sp.CutRandom
	CutSmallest = sp.CutSmallest
	CutLargest  = sp.CutLargest
)

// Heuristic selects the decomposition-mapper iteration scheme (§III-D).
type Heuristic = decomp.Heuristic

// Iteration heuristics.
const (
	// Basic fully re-evaluates all mapping operations per iteration.
	Basic = decomp.Basic
	// GammaThreshold prunes re-evaluations with a gamma look-ahead bound.
	GammaThreshold = decomp.GammaThreshold
	// FirstFit applies the first re-validated improvement (gamma = 1).
	FirstFit = decomp.FirstFit
)

// MapperStats reports decomposition-mapper effort.
type MapperStats = decomp.Stats

// MILPKind selects a reference integer program.
type MILPKind = milp.Formulation

// MILP formulations.
const (
	MILPZhouLiu    = milp.ZhouLiu
	MILPWGDPDevice = milp.WGDPDevice
	MILPWGDPTime   = milp.WGDPTime
)

// NewDAG returns an empty task graph.
func NewDAG() *DAG { return graph.New(0, 0) }

// ReferencePlatform returns the paper's evaluation platform (§IV-A): one
// CPU, one GPU and one streaming FPGA.
func ReferencePlatform() *Platform { return platform.Reference() }

// NewEvaluator builds the model-based cost function for (g, p). Chain
// WithSchedules(n, seed) to evaluate mappings as the minimum over the BFS
// and n random schedules (the paper uses n = 100).
func NewEvaluator(g *DAG, p *Platform) *Evaluator { return model.NewEvaluator(g, p) }

// NewEngine compiles a concurrency-safe evaluation engine for (g, p)
// whose schedule set is the BFS order plus nRandom random topological
// orders drawn from seed — the batch/cutoff counterpart of
// NewEvaluator(g, p).WithSchedules(nRandom, seed), with bit-identical
// makespans.
func NewEngine(g *DAG, p *Platform, nRandom int, seed int64) *Engine {
	return eval.NewEngineSchedules(g, p, nRandom, seed, eval.Options{})
}

// BaselineMapping returns the pure-CPU (default device) mapping.
func BaselineMapping(g *DAG, p *Platform) Mapping { return mapping.Baseline(g, p) }

// Improvement returns the positive relative makespan improvement of m
// over the pure-CPU baseline under ev (the paper's quality metric).
func Improvement(ev *Evaluator, m Mapping) float64 {
	base := ev.Makespan(mapping.Baseline(ev.G, ev.P))
	ms := ev.Makespan(m)
	if base <= 0 || ms >= base {
		return 0
	}
	return (base - ms) / base
}

// MapSingleNode runs single-node decomposition mapping (§III-B).
func MapSingleNode(g *DAG, p *Platform, h Heuristic) (Mapping, MapperStats, error) {
	return decomp.Map(g, p, decomp.Options{Strategy: decomp.SingleNode, Heuristic: h})
}

// MapSeriesParallel runs series-parallel decomposition mapping (§III-C).
func MapSeriesParallel(g *DAG, p *Platform, h Heuristic) (Mapping, MapperStats, error) {
	return decomp.Map(g, p, decomp.Options{Strategy: decomp.SeriesParallel, Heuristic: h})
}

// MapGammaThreshold runs series-parallel decomposition mapping with an
// explicit gamma look-ahead threshold (§III-D); gamma = 1 is FirstFit.
func MapGammaThreshold(g *DAG, p *Platform, gamma float64) (Mapping, MapperStats, error) {
	return decomp.Map(g, p, decomp.Options{
		Strategy: decomp.SeriesParallel, Heuristic: decomp.GammaThreshold, Gamma: gamma,
	})
}

// MapHEFT runs the Heterogeneous Earliest Finish Time baseline.
func MapHEFT(g *DAG, p *Platform) Mapping { return heft.Map(g, p, heft.HEFT) }

// MapPEFT runs the Predict Earliest Finish Time baseline.
func MapPEFT(g *DAG, p *Platform) Mapping { return heft.Map(g, p, heft.PEFT) }

// GAOptions configure MapGenetic.
type GAOptions = ga.Options

// GAStats reports genetic-algorithm effort and convergence.
type GAStats = ga.Stats

// MapGenetic runs the single-objective NSGA-II baseline.
func MapGenetic(g *DAG, p *Platform, opt GAOptions) (Mapping, GAStats) {
	return ga.Map(g, p, opt)
}

// LocalSearchOptions configure MapLocalSearch and Refine. Seed and
// Workers are explicit: for a fixed Seed the result (mapping, makespan
// and stats) is identical across runs and across any Workers value —
// random draws happen on the calling goroutine in a fixed order and
// batch results are index-aligned, so no reduction depends on goroutine
// scheduling.
type LocalSearchOptions = localsearch.Options

// LocalSearchStats reports local-search effort and outcome.
type LocalSearchStats = localsearch.Stats

// LocalSearchAlgorithm selects the search scheme of MapLocalSearch.
type LocalSearchAlgorithm = localsearch.Algorithm

// Local-search schemes. Both search over single-task moves, edge
// co-moves and the paper's §III-C series-parallel subgraph co-moves
// (the co-moves cross the streaming-chain plateaus where no single
// move improves).
const (
	// Anneal is batched simulated annealing with Metropolis acceptance.
	Anneal = localsearch.Anneal
	// HillClimb is batched steepest-descent over the full neighborhood
	// with iterated-local-search kicks.
	HillClimb = localsearch.HillClimb
)

// MapLocalSearch runs local search (simulated annealing or the batched
// hill-climber) from the pure-CPU baseline. The result is never worse
// than the baseline mapping.
func MapLocalSearch(g *DAG, p *Platform, opt LocalSearchOptions) (Mapping, LocalSearchStats, error) {
	return localsearch.Map(g, p, opt)
}

// Refine polishes an existing mapping — any mapper's output — with
// local search under ev's cost function. The result is never worse
// than the (area-repaired) input mapping.
func Refine(ev *Evaluator, m Mapping, opt LocalSearchOptions) (Mapping, LocalSearchStats, error) {
	return localsearch.Refine(ev, m, opt)
}

// ParetoPoint is one (makespan, energy) outcome of a mapping on the
// multi-objective front.
type ParetoPoint = pareto.Point

// ParetoFront is a set of mutually non-dominated (makespan, energy)
// points sorted by ascending makespan.
type ParetoFront = pareto.Front

// ParetoArchive is the bounded ε-dominance archive behind MapPareto,
// exported for callers that harvest fronts from their own search loops.
type ParetoArchive = pareto.Archive

// NewParetoArchive returns an empty ε-dominance archive (eps = 0 keeps
// the exact front).
func NewParetoArchive(eps float64) *ParetoArchive { return pareto.NewArchive(eps) }

// ParetoAlgorithm selects the multi-objective driver of MapPareto.
type ParetoAlgorithm int

// Multi-objective drivers.
const (
	// ParetoSweep runs one weighted-scalarization local search per
	// sweep weight over the engine's multi-objective batch path and
	// archives every incumbent. The pure-time weight runs the plain
	// single-objective search, so the front always contains the
	// makespan optimum the same budget would have found alone.
	ParetoSweep ParetoAlgorithm = iota
	// ParetoNSGA2 runs true two-objective NSGA-II (non-dominated
	// sorting, crowding-distance selection) and archives every
	// evaluated individual.
	ParetoNSGA2
)

// String implements fmt.Stringer.
func (a ParetoAlgorithm) String() string {
	if a == ParetoNSGA2 {
		return "NSGA2"
	}
	return "Sweep"
}

// ParetoOptions configure MapPareto; zero values select the defaults.
type ParetoOptions struct {
	// Algorithm selects the driver (default ParetoSweep).
	Algorithm ParetoAlgorithm
	// Eps is the archive's ε-dominance grid resolution: the front keeps
	// at most one point per ε-box of objective space, bounding its size
	// (0 keeps the exact non-dominated front).
	Eps float64
	// Seed drives the deterministic RNG. Equal seeds give identical
	// fronts regardless of Workers.
	Seed int64
	// Workers bounds the evaluation engine's worker pool (0 selects
	// GOMAXPROCS); the front is identical for any value.
	Workers int
	// Budget caps total engine evaluations (default 50100, the paper
	// GA's budget): the sweep splits it across its weights, NSGA-II
	// derives population x (generations+1) from it.
	Budget int
	// Weights are the sweep's time weights in [0, 1] (sweep only;
	// default pareto.DefaultWeights).
	Weights []float64
	// Init refines an existing mapping instead of the pure-CPU baseline
	// (sweep only).
	Init Mapping
}

// ParetoStats report MapPareto effort and outcome.
type ParetoStats struct {
	Algorithm   ParetoAlgorithm
	Evaluations int
	// FrontSize is the returned front's size; ArchiveSeen counts the
	// feasible points offered to the ε-archive.
	FrontSize   int
	ArchiveSeen int
	// BestMakespan and BestEnergy are the front's per-objective minima.
	BestMakespan float64
	BestEnergy   float64
}

// MapPareto maps (g, p) under the two-objective (makespan, energy)
// model and returns the ε-dominance Pareto front. Both objectives are
// evaluated on the engine's multi-objective batch path (energy at
// near-zero marginal cost next to the makespan simulation). The front
// is deterministic for a fixed Seed regardless of Workers.
func MapPareto(g *DAG, p *Platform, opt ParetoOptions) (ParetoFront, ParetoStats, error) {
	return MapParetoWithEvaluator(model.NewEvaluator(g, p), opt)
}

// MapParetoWithEvaluator is MapPareto with a caller-supplied evaluator
// (to control the schedule set and share the compiled engine).
func MapParetoWithEvaluator(ev *Evaluator, opt ParetoOptions) (ParetoFront, ParetoStats, error) {
	budget := opt.Budget
	if budget <= 0 {
		budget = 50100
	}
	stats := ParetoStats{Algorithm: opt.Algorithm}
	switch opt.Algorithm {
	case ParetoNSGA2:
		// Derive (population, generations) from the evaluation budget:
		// the paper's population of 100 once the budget carries it, a
		// smaller population (still >= 4) below.
		pop := ga.DefaultPopulation
		if budget < 2*pop {
			if pop = budget / 8; pop < 4 {
				pop = 4
			}
		}
		gens := budget/pop - 1
		if gens < 1 {
			gens = 1
		}
		front, st := ga.MapParetoWithEvaluator(ev, ga.ParetoOptions{
			Population: pop, Generations: gens,
			Seed: opt.Seed, Workers: opt.Workers, Eps: opt.Eps,
		})
		stats.Evaluations = st.Evaluations
		stats.FrontSize = st.FrontSize
		stats.ArchiveSeen = st.ArchiveSeen
		stats.BestMakespan, stats.BestEnergy = st.BestMakespan, st.BestEnergy
		return front, stats, nil
	default:
		weights := opt.Weights
		if len(weights) == 0 {
			weights = pareto.DefaultWeights
		}
		perWeight := budget / len(weights)
		if perWeight < 1 {
			perWeight = 1 // a zero budget would select the sweep's default
		}
		front, st, err := pareto.WeightedSweep(ev, pareto.SweepOptions{
			Weights: weights, Eps: opt.Eps, Budget: perWeight,
			Seed: opt.Seed, Workers: opt.Workers, Init: opt.Init,
		})
		if err != nil {
			return nil, stats, err
		}
		stats.Evaluations = st.Evaluations
		stats.FrontSize = st.FrontSize
		stats.ArchiveSeen = st.ArchiveSeen
		stats.BestMakespan, stats.BestEnergy = st.BestMakespan, st.BestEnergy
		return front, stats, nil
	}
}

// NoiseModel describes multiplicative stochastic perturbations of the
// cost model — per-(task, device) and common-mode per-device
// execution-time factors plus per-edge transfer-size factors — used by
// the robust objective. Sampling is deterministic: sample s of a fixed
// model is one fixed perturbed cost world.
type NoiseModel = eval.NoiseModel

// NoiseKind selects a NoiseModel's perturbation distribution.
type NoiseKind = eval.NoiseKind

// Perturbation distributions.
const (
	// NoiseLognormal draws multiplicative lognormal factors exp(σZ).
	NoiseLognormal = eval.NoiseLognormal
	// NoiseUniform draws uniform factors 1 + σU, U in [-1, 1) (σ < 1).
	NoiseUniform = eval.NoiseUniform
)

// Objective is one minimized batch objective of the evaluation engine's
// vector API (Engine.EvaluateBatchVec); see eval.BuildObjective for the
// registry of named objectives ("makespan", "energy", "robust",
// "robust-mean").
type Objective = eval.Objective

// DefaultRobustSamples is MapRobust's default Monte-Carlo sample count.
const DefaultRobustSamples = 32

// RobustOptions configure MapRobust; zero values select the defaults.
type RobustOptions struct {
	// Noise is the stochastic cost model the robust objective samples.
	// The zero model is valid but degenerate (no perturbation).
	Noise NoiseModel
	// Samples is the Monte-Carlo sample count per candidate (default
	// DefaultRobustSamples).
	Samples int
	// Tail is the reported tail quantile in (0, 1) (default 0.95).
	Tail float64
	// Eps is the archive's ε-dominance grid resolution (0 = exact front).
	Eps float64
	// Seed drives the deterministic RNG. Equal seeds give identical
	// fronts regardless of Workers.
	Seed int64
	// Workers bounds the evaluation engine's worker pool (0 selects
	// GOMAXPROCS); the front is identical for any value.
	Workers int
	// Budget caps candidate evaluations (default 4200); each candidate
	// additionally costs Samples perturbed simulations, so robust runs
	// default to a much smaller budget than the nominal mappers' 50100.
	Budget int
}

// RobustStats report MapRobust effort and outcome.
type RobustStats struct {
	// Evaluations counts evaluated candidates (each one nominal
	// simulation plus Samples perturbed ones); Samples echoes the
	// Monte-Carlo sample count.
	Evaluations int
	Samples     int
	// FrontSize is the returned front's size; ArchiveSeen counts the
	// feasible candidates offered to the ε-archive.
	FrontSize   int
	ArchiveSeen int
	// BestMakespan, BestEnergy and BestRobust are the front's
	// per-objective minima (nominal makespan, energy, tail makespan).
	BestMakespan float64
	BestEnergy   float64
	BestRobust   float64
}

// MapRobust maps (g, p) under the three-objective (makespan, energy,
// tail makespan) model: NSGA-II over the engine's objective-vector
// batch path, where the third objective is the Tail quantile of the
// candidate's makespan across Samples Monte-Carlo perturbed cost worlds
// drawn from Noise. It returns the ε-dominance front of time × energy ×
// robustness trade-offs; the min-robust point is the uncertainty-hedged
// mapping (compare experiments.RobustComparison). The front is
// deterministic for a fixed (Seed, Noise, Samples) regardless of
// Workers and cache configuration.
func MapRobust(g *DAG, p *Platform, opt RobustOptions) (ParetoFront, RobustStats, error) {
	return MapRobustWithEvaluator(model.NewEvaluator(g, p), opt)
}

// MapRobustWithEvaluator is MapRobust with a caller-supplied evaluator
// (to control the schedule set and share the compiled engine).
func MapRobustWithEvaluator(ev *Evaluator, opt RobustOptions) (ParetoFront, RobustStats, error) {
	samples := opt.Samples
	if samples == 0 {
		samples = DefaultRobustSamples
	}
	robust, err := eval.NewRobustObjective(opt.Noise, samples, opt.Tail, eval.RobustTail)
	if err != nil {
		return nil, RobustStats{}, err
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = 4200
	}
	pop := ga.DefaultPopulation
	if budget < 2*pop {
		if pop = budget / 8; pop < 4 {
			pop = 4
		}
	}
	gens := budget/pop - 1
	if gens < 1 {
		gens = 1
	}
	front, st := ga.MapParetoWithEvaluator(ev, ga.ParetoOptions{
		Population: pop, Generations: gens,
		Seed: opt.Seed, Workers: opt.Workers, Eps: opt.Eps,
		Objectives: []Objective{
			eval.MakespanObjective(), eval.EnergyObjective(), robust,
		},
	})
	stats := RobustStats{
		Evaluations: st.Evaluations, Samples: samples,
		FrontSize: st.FrontSize, ArchiveSeen: st.ArchiveSeen,
		BestMakespan: st.BestMakespan, BestEnergy: st.BestEnergy,
	}
	if len(front) > 0 {
		stats.BestRobust = front.MinObjective(2).Objective(2)
	}
	return front, stats, nil
}

// PortfolioOptions configure MapPortfolio; zero values select the
// defaults (full portfolio, the paper GA's 50100-evaluation budget, the
// shared evaluation cache on). Setting GapTarget in (0, 1) arms
// gap-adaptive termination: the race stops as soon as the incumbent's
// certified optimality gap reaches the target.
type PortfolioOptions = portfolio.Options

// PortfolioStats report a portfolio race: per-member budgets,
// evaluations and outcomes, coordination rounds, reallocated budget,
// the certified makespan lower bound and optimality gap of the returned
// mapping (LowerBound, BoundName, Gap — certified on every run), the
// gap-adaptive early-stop outcome (GapStop, BudgetSaved), and the
// shared cache's telemetry. All fields except Cache are deterministic
// for a fixed Seed regardless of Workers (cache hit counts depend on
// wall-clock interleaving; Stats.Deterministic zeroes them for
// fingerprinting).
type PortfolioStats = portfolio.Stats

// PortfolioMember identifies one racing mapper of MapPortfolio.
type PortfolioMember = portfolio.MemberKind

// Portfolio members.
const (
	// PortfolioSPFFRefine is the series-parallel FirstFit decomposition
	// mapper polished by annealing refinement.
	PortfolioSPFFRefine = portfolio.SPFFRefine
	// PortfolioHEFTRefine / PortfolioPEFTRefine refine the list-
	// scheduling seed mappings.
	PortfolioHEFTRefine = portfolio.HEFTRefine
	PortfolioPEFTRefine = portfolio.PEFTRefine
	// PortfolioAnneal and PortfolioHillClimb are the local searches from
	// the pure-CPU baseline.
	PortfolioAnneal    = portfolio.Anneal
	PortfolioHillClimb = portfolio.HillClimb
	// PortfolioNSGA2 is the single-objective genetic algorithm.
	PortfolioNSGA2 = portfolio.NSGA2
)

// MapPortfolio races the mapper portfolio on (g, p) under a shared
// evaluation budget: every member searches concurrently on the same
// memoizing evaluation engine (a candidate proposed by two mappers is
// simulated once), the best mapping found so far is periodically
// published and injected into stalled members as a restart elite, and
// members that stop improving donate budget to the leader. The result
// is never worse than what the best-performing member would have found
// with its share, and deterministic for a fixed Options.Seed across any
// Options.Workers value (see internal/portfolio for the rendezvous
// design that keeps real concurrency out of the results).
//
// Every race also certifies its result: Stats carries a proven makespan
// lower bound for the instance and the returned mapping's optimality
// gap. With Options.GapTarget set the race is gap-adaptive — it
// terminates as soon as the certified gap reaches the target instead of
// exhausting the budget (Stats.GapStop, Stats.BudgetSaved).
func MapPortfolio(g *DAG, p *Platform, opt PortfolioOptions) (Mapping, PortfolioStats, error) {
	return portfolio.Map(g, p, opt)
}

// MapPortfolioWithEvaluator is MapPortfolio with a caller-supplied
// evaluator (to control the schedule set and share the compiled
// engine). The evaluator is not mutated.
func MapPortfolioWithEvaluator(ev *Evaluator, opt PortfolioOptions) (Mapping, PortfolioStats, error) {
	return portfolio.MapWithEvaluator(ev, opt)
}

// BoundCertificate is a proven makespan lower bound for an instance:
// the best value across the certifying methods, the name of the method
// that achieved it, and every method's individual bound.
type BoundCertificate = bounds.Certificate

// CertifyLowerBound computes a certified makespan lower bound for
// (g, p) from the combinatorial bound family (critical path over best
// execution times, device-class load, transfer-aware path DP): a value
// no feasible mapping can beat under the simulator semantics, usable as
// the denominator-side certificate for any mapper's result. Bounds are
// pure instance functions — deterministic, no search, no wall clock.
func CertifyLowerBound(g *DAG, p *Platform) BoundCertificate {
	return bounds.Certify(model.NewEvaluator(g, p))
}

// OptimalityGap returns the certified gap (makespan - bound)/makespan
// clamped to [0, 1]; 1 when nothing useful is certified (non-positive
// bound, or an infeasible/non-positive makespan).
func OptimalityGap(makespan, bound float64) float64 { return bounds.Gap(makespan, bound) }

// MILPResult is the outcome of a MILP mapping run.
type MILPResult = milp.Result

// MapMILP builds and solves one of the reference integer programs with
// the built-in branch-and-bound solver under the given time limit.
func MapMILP(g *DAG, p *Platform, kind MILPKind, timeLimit time.Duration) MILPResult {
	return milp.Map(g, p, kind, milp.MapOptions{TimeLimit: timeLimit})
}

// Decompose computes a forest of series-parallel decomposition trees for
// an arbitrary DAG (paper Alg. 1) under the given cut policy.
func Decompose(g *DAG, policy CutPolicy, seed int64) (*SPForest, error) {
	return sp.Decompose(g, sp.Options{Policy: policy, Seed: seed})
}

// IsSeriesParallel reports whether the DAG (after single source/sink
// normalization) is two-terminal series-parallel.
func IsSeriesParallel(g *DAG) bool { return sp.IsSeriesParallel(g) }

// SeriesParallelSubgraphs returns the §III-C subgraph set of a graph
// together with the decomposition forest it derives from.
func SeriesParallelSubgraphs(g *DAG, policy CutPolicy, seed int64) ([]Subgraph, *SPForest, error) {
	return sp.SeriesParallelSubgraphs(g, sp.Options{Policy: policy, Seed: seed})
}

// RandomSeriesParallel generates a random series-parallel task graph with
// n tasks and the paper's §IV-B attribute distributions.
func RandomSeriesParallel(rng *rand.Rand, n int) *DAG {
	return gen.SeriesParallel(rng, n, gen.DefaultAttr())
}

// RandomAlmostSeriesParallel generates a series-parallel graph with n
// tasks plus k random (mostly conflicting) extra edges (§IV-C).
func RandomAlmostSeriesParallel(rng *rand.Rand, n, k int) *DAG {
	return gen.AlmostSeriesParallel(rng, n, k, gen.DefaultAttr())
}

// Scenario is a deterministic event stream for online replay: device
// failures and degradations, series-parallel subgraph arrivals and
// departures, each timestamped and seed-parametrized.
type Scenario = gen.Scenario

// ScenarioEvent is one timestamped perturbation of a Scenario.
type ScenarioEvent = gen.Event

// ScenarioEventKind classifies a scenario event.
type ScenarioEventKind = gen.EventKind

// Scenario event kinds.
const (
	DeviceFail    = gen.DeviceFail
	DeviceDegrade = gen.DeviceDegrade
	TaskArrive    = gen.TaskArrive
	TaskDepart    = gen.TaskDepart
)

// ScenarioOptions configure NewScenario.
type ScenarioOptions = gen.ScenarioOptions

// NewScenario draws a valid random scenario from rng: timestamps
// strictly increase, the default (host) device never fails and at least
// two devices survive, and departures only reference live arrivals.
func NewScenario(rng *rand.Rand, opt ScenarioOptions) Scenario {
	return gen.NewScenario(rng, opt)
}

// ReadScenario parses a scenario from JSON (the format spmap-gen
// -kind scenario emits and Scenario.Write produces).
func ReadScenario(r io.Reader) (Scenario, error) { return gen.ReadScenario(r) }

// OnlineOptions configure Replay; zero values select the defaults
// (20 random schedules per kernel, a 3000-evaluation repair budget,
// refinement repair, the per-kernel evaluation cache on).
type OnlineOptions = online.Options

// OnlineStats report a whole replay: the opening mapping, one record
// per event (migration counts, kernel rebuilds, makespans before and
// after repair) and the totals. Every field except the cache telemetry
// is deterministic for a fixed seed regardless of Workers; Trace
// renders exactly the deterministic fields.
type OnlineStats = online.Stats

// OnlineEventStats records one replayed scenario event.
type OnlineEventStats = online.EventStats

// OnlineRepairMode selects the per-event warm-start repair pass.
type OnlineRepairMode = online.RepairMode

// Online repair modes.
const (
	// RepairRefine races the migrated incumbent against a fresh SPFF
	// seed and refines the better with annealing (default).
	RepairRefine = online.RepairRefine
	// RepairPortfolio races the full mapper portfolio warm-started with
	// the migrated incumbent.
	RepairPortfolio = online.RepairPortfolio
)

// Replay runs a scenario against a live copy of (g, p): the instance is
// mapped with SPFF plus refinement, then every event is applied —
// kernel rebuild, incumbent migration, budgeted warm-start repair — and
// the final mapping is returned with the full replay statistics. The
// inputs are not mutated. Warm-start repair is never worse than the
// migrated incumbent, and on the repository's seed instances never
// worse than a cold re-map at equal post-event budget (OnlineOptions.
// Cold selects that cold baseline for comparisons).
func Replay(g *DAG, p *Platform, sc Scenario, opt OnlineOptions) (Mapping, OnlineStats, error) {
	return online.Replay(g, p, sc, opt)
}

// OnlineInstance is the live state of one replay, for callers that need
// to checkpoint, interleave or resume streams instead of running Replay
// start to finish: NewOnlineInstance maps the opening state, Step
// applies one scenario event, Snapshot/RestoreInstance serialize and
// rebuild live state. An OnlineInstance is single-goroutine.
type OnlineInstance = online.Instance

// OnlineSnapshot is the serializable state of a live replay at an event
// boundary: the evolving graph, platform and incumbent mapping, the
// live arrival groups, the event cursor, the accumulated statistics and
// the trace-relevant options. Compiled kernels and evaluation caches
// are never serialized — RestoreInstance rebuilds them fresh, so a
// restored instance can never consult stale cache entries. Encode
// renders a snapshot as a versioned, byte-stable binary blob;
// DecodeOnlineSnapshot parses one back.
type OnlineSnapshot = online.Snapshot

// NewOnlineInstance builds a live replay instance on a private copy of
// (g, p): the opening mapping (SPFF plus refinement) is computed, no
// events are applied yet.
func NewOnlineInstance(g *DAG, p *Platform, opt OnlineOptions) (*OnlineInstance, error) {
	return online.NewInstance(g, p, opt)
}

// RestoreInstance rebuilds a live replay instance from a snapshot with
// a freshly compiled kernel and a fresh, empty evaluation cache.
// Trace-relevant options travel with the snapshot; opt may supply only
// host-local knobs (Workers, DisableCache) plus values equal to the
// snapshot's own — a non-zero conflicting value is an error rather than
// a silently diverging trace. A resumed replay's trace is byte-identical
// to an uninterrupted one.
func RestoreInstance(s *OnlineSnapshot, opt OnlineOptions) (*OnlineInstance, error) {
	return online.Restore(s, opt)
}

// DecodeOnlineSnapshot parses the versioned binary encoding produced by
// OnlineSnapshot.Encode.
func DecodeOnlineSnapshot(data []byte) (*OnlineSnapshot, error) {
	return online.DecodeSnapshot(data)
}

// Fleet types: many concurrent replay streams sharded across workers
// with periodic checkpoints and verifiable crash-resume.
type (
	// FleetStream is one scenario replay to drive: a (graph, platform)
	// instance, the event stream, and the replay options. The ID keys
	// the stream's checkpoints in the store and must be unique.
	FleetStream = fleet.Stream
	// FleetOptions configure RunFleet: shard count, checkpoint cadence,
	// the checkpoint store, and an interrupt hook for crash simulation.
	FleetOptions = fleet.Options
	// FleetResult reports one stream's outcome, in stream order
	// regardless of shard assignment.
	FleetResult = fleet.Result
	// FleetCheckpoint is one stream's latest persisted state: an
	// encoded OnlineSnapshot plus the event cursor it was taken at.
	FleetCheckpoint = fleet.Checkpoint
	// FleetStore persists at most one (the latest) checkpoint per
	// stream; implementations must be safe for concurrent shards.
	FleetStore = fleet.Store
)

// NewFleetMemStore returns an in-memory checkpoint store for tests and
// single-process fleets.
func NewFleetMemStore() *fleet.MemStore { return fleet.NewMemStore() }

// NewFleetDirStore returns a directory-backed checkpoint store (one
// file per stream, atomic replace), so a killed process resumes on the
// next run.
func NewFleetDirStore(dir string) (*fleet.DirStore, error) { return fleet.NewDirStore(dir) }

// RunFleet shards the streams across worker shards and replays each to
// completion, checkpointing into opt.Store at the configured cadence.
// Streams that already have a checkpoint in the store are restored and
// only the scenario tail is re-applied; an interrupted-and-resumed
// stream produces the same OnlineStats.Trace() as an uninterrupted one.
// Stream-to-shard assignment depends only on (index, shard count),
// never on timing, so fleet results are deterministic too.
func RunFleet(streams []FleetStream, opt FleetOptions) ([]FleetResult, error) {
	return fleet.Run(streams, opt)
}

// WorkflowFamily identifies one of the nine WfCommons-like workflow
// generators (§IV-D).
type WorkflowFamily = wf.Family

// Workflow families.
const (
	Genome1000  = wf.Genome1000
	Blast       = wf.Blast
	BWA         = wf.BWA
	Cycles      = wf.Cycles
	Epigenomics = wf.Epigenomics
	Montage     = wf.Montage
	Seismology  = wf.Seismology
	SoyKB       = wf.SoyKB
	SRASearch   = wf.SRASearch
)

// GenerateWorkflow builds one synthetic workflow instance of the family
// at the given scale (>= 1).
func GenerateWorkflow(f WorkflowFamily, scale int, rng *rand.Rand) *DAG {
	return wf.Generate(f, scale, rng)
}

// ServiceOptions configure a mapping service: the default platform,
// evaluation worker count, batch coalescing (max batch size and wait),
// cache bound, warm-instance table size, and request caps. The zero
// value selects production defaults; NoCoalesce disables cross-request
// batch coalescing (every request then evaluates directly).
type ServiceOptions = service.Options

// MappingService is spmapd's embeddable core: a long-running HTTP
// mapping service holding warm per-(graph, platform, schedules, seed)
// state — compiled simulation kernel, bounded evaluation cache, and a
// coalescing batcher that merges candidate evaluations from concurrent
// requests into shared engine batches. Endpoints: POST /v1/map,
// /v1/refine, /v1/evaluate (whole-mapping or patch-form candidates),
// /v1/replay, /v1/snapshot (capture live replay state as a
// content-addressed handle, or resume a stored snapshot and apply
// further events); GET /healthz and /v1/stats (JSON, or CSV with
// ?format=csv). Responses are byte-deterministic for a fixed (request,
// seed, workers) tuple regardless of batching mode or flush
// interleaving. Serve Handler() from any http.Server; Close drains the
// batchers.
type MappingService = service.Service

// ServiceStats is a telemetry snapshot of a mapping service: totals,
// per-instance coalescing/cache counters, and the per-request timing
// ring.
type ServiceStats = service.Stats

// ServiceTiming is one request's phase breakdown (queue, batch wait,
// evaluation, respond — microseconds), as embedded in responses on
// request ("timing": true) and listed by /v1/stats.
type ServiceTiming = service.Timing

// NewMappingService builds a mapping service ready to serve. See
// cmd/spmapd for the standalone daemon wrapping it.
func NewMappingService(opt ServiceOptions) *MappingService { return service.New(opt) }
