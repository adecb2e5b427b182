// Package decomp implements the paper's primary contribution:
// decomposition-based task mapping with full model-based re-evaluation
// (§III). Two subgraph-set strategies are provided — single-node (§III-B)
// and series-parallel decomposition (§III-C) — each with the basic greedy
// principle, the gamma-threshold heuristic and its FirstFit special case
// (§III-D).
package decomp

import (
	"fmt"
	"math"
	"sort"

	"spmap/internal/eval"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
	"spmap/internal/sp"
)

// Strategy selects how the subgraph set is constructed.
type Strategy int

// Subgraph-set strategies.
const (
	// SingleNode uses one singleton subgraph per task (§III-B).
	SingleNode Strategy = iota
	// SeriesParallel uses singletons plus the operations of a
	// series-parallel decomposition forest (§III-C).
	SeriesParallel
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == SingleNode {
		return "SingleNode"
	}
	return "SeriesParallel"
}

// Heuristic selects the iteration scheme of §III-A/§III-D.
type Heuristic int

// Iteration heuristics.
const (
	// Basic fully re-evaluates every mapping operation in every iteration
	// and applies the best improvement (§III-A).
	Basic Heuristic = iota
	// GammaThreshold orders operations by expected improvement and only
	// looks ahead while the expected improvement exceeds the best found
	// improvement divided by Gamma (§III-D).
	GammaThreshold
	// FirstFit is the gamma-threshold scheme with gamma = 1: the first
	// (re-validated) improvement is applied (§III-D).
	FirstFit
)

// String implements fmt.Stringer.
func (h Heuristic) String() string {
	switch h {
	case Basic:
		return "Basic"
	case GammaThreshold:
		return "GammaThreshold"
	default:
		return "FirstFit"
	}
}

// Options configure the decomposition mapper.
type Options struct {
	Strategy  Strategy
	Heuristic Heuristic
	// Gamma is the look-ahead divisor for GammaThreshold (must be >= 1;
	// ignored for Basic, forced to 1 for FirstFit).
	Gamma float64
	// SP configures the decomposition forest for SeriesParallel.
	SP sp.Options
	// MaxIterations caps the number of applied mapping changes, guarding
	// against degenerate situations as the paper suggests (§III-A). Zero
	// selects the default of 4n, which is never reached in practice.
	MaxIterations int
	// Objective overrides the minimized cost function (default: the
	// evaluator's schedule-set makespan). It must be deterministic and
	// return model.Infeasible for infeasible mappings; the multi-objective
	// extension (energy, EDP, weighted scalarizations) plugs in here.
	Objective model.Objective
	// Workers bounds the evaluation engine's worker pool for the batched
	// operation evaluations — every iteration of Basic, and the seeding
	// pass of GammaThreshold/FirstFit (0 selects GOMAXPROCS, 1 forces
	// serial). The result is identical for any value — the batch API
	// returns index-aligned results and the reduction is deterministic.
	// The GammaThreshold/FirstFit look-ahead loop is inherently
	// sequential.
	Workers int
}

// Stats reports mapper effort.
type Stats struct {
	// Subgraphs is the size of the subgraph set |S|.
	Subgraphs int
	// Operations is |S| x number of devices.
	Operations int
	// Iterations is the number of applied mapping changes.
	Iterations int
	// Evaluations counts model evaluations performed.
	Evaluations int
	// Makespan is the deterministic model makespan of the result.
	Makespan float64
	// Cuts reports decomposition cuts (SeriesParallel only).
	Cuts int
}

// improvementEps is the relative threshold below which a makespan change
// does not count as an improvement; it guarantees termination under
// floating-point arithmetic.
const improvementEps = 1e-12

// Map runs decomposition-based mapping on (g, p) and returns the final
// mapping together with effort statistics. The result is by construction
// never worse than the pure-CPU baseline (§IV-A).
func Map(g *graph.DAG, p *platform.Platform, opt Options) (mapping.Mapping, Stats, error) {
	ev := model.NewEvaluator(g, p)
	return MapWithEvaluator(ev, opt)
}

// MapWithEvaluator is Map with a caller-supplied evaluator (to share the
// precomputed execution table across mapper runs).
func MapWithEvaluator(ev *model.Evaluator, opt Options) (mapping.Mapping, Stats, error) {
	g, p := ev.G, ev.P
	var stats Stats

	var subgraphs []sp.Subgraph
	switch opt.Strategy {
	case SingleNode:
		subgraphs = sp.SingleNodeSet(g)
	case SeriesParallel:
		sets, forest, err := sp.SeriesParallelSubgraphs(g, opt.SP)
		if err != nil {
			return nil, stats, err
		}
		subgraphs = sets
		stats.Cuts = forest.Cuts
	default:
		return nil, stats, fmt.Errorf("decomp: unknown strategy %d", int(opt.Strategy))
	}
	stats.Subgraphs = len(subgraphs)

	var ops []mapOp
	for _, s := range subgraphs {
		for d := 0; d < p.NumDevices(); d++ {
			ops = append(ops, mapOp{s, d})
		}
	}
	stats.Operations = len(ops)

	cost := opt.Objective
	if cost == nil {
		cost = ev.MakespanObjective()
	}
	m := mapping.Baseline(g, p)
	best := cost(m)
	stats.Evaluations++

	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 4 * g.NumTasks()
		if maxIter < 16 {
			maxIter = 16
		}
	}

	// inc is the incremental evaluation session around the incumbent
	// mapping, opened by the GammaThreshold/FirstFit branch when the
	// objective is the default makespan: its recording of the incumbent
	// serves the sequential candidate evaluations and is repaired in
	// place, not re-recorded, when a move is applied. Basic evaluates
	// whole batches instead, and custom objectives evaluate through their
	// closure.
	var inc *eval.Incremental

	// evalOp measures applying op o to the incumbent. It returns the
	// absolute improvement over `best` (negative when worse).
	saved := make([]int, 0, 64)
	evalOp := func(o mapOp) float64 {
		if !o.changes(m) {
			return 0
		}
		stats.Evaluations++
		var ms float64
		if inc != nil {
			ms = inc.Evaluate(o.sg, o.dev, math.Inf(1))
		} else {
			saved = saved[:0]
			for _, v := range o.sg {
				saved = append(saved, m[v])
				m[v] = o.dev
			}
			ms = cost(m)
			for i, v := range o.sg {
				m[v] = saved[i]
			}
		}
		if ms == model.Infeasible {
			return math.Inf(-1)
		}
		return best - ms
	}
	apply := func(o mapOp) {
		for _, v := range o.sg {
			m[v] = o.dev
		}
		if inc != nil {
			// Read off the repaired recording; it still counts as the
			// evaluation cost(m) is, so Stats.Evaluations (which the
			// portfolio's budget accounting reads) matches either path.
			inc.Apply(o.sg, o.dev)
			best = inc.Makespan()
		} else {
			best = cost(m)
		}
		stats.Evaluations++
		stats.Iterations++
	}
	minImprove := func() float64 { return best * improvementEps }

	switch opt.Heuristic {
	case Basic:
		if opt.Objective != nil {
			// Custom objectives may close over shared state; evaluate them
			// serially through the plain callback.
			for stats.Iterations < maxIter {
				bestOp, bestDelta := -1, minImprove()
				for i := range ops {
					if d := evalOp(ops[i]); d > bestDelta {
						bestOp, bestDelta = i, d
					}
				}
				if bestOp < 0 {
					break
				}
				apply(ops[bestOp])
			}
			break
		}
		// Default (makespan) objective: re-evaluate every operation of the
		// iteration as one engine batch. The cutoff rejects any candidate
		// that cannot beat the incumbent by more than the improvement
		// epsilon, so most simulations abort after a few tasks; results at
		// or below the cutoff are exact, making the argmax reduction
		// bit-identical to the serial scan.
		eng := batchEngine(ev, opt)
		for stats.Iterations < maxIter {
			bestOp, bestDelta := -1, minImprove()
			for i, d := range batchDeltas(eng, ops, m, best, best-bestDelta, &stats) {
				if d > bestDelta {
					bestOp, bestDelta = i, d
				}
			}
			if bestOp < 0 {
				break
			}
			apply(ops[bestOp])
		}

	case GammaThreshold, FirstFit:
		gamma := opt.Gamma
		if opt.Heuristic == FirstFit || gamma < 1 {
			gamma = 1
		}
		// Expected improvements seed the priority ordering; they are
		// refreshed whenever an operation is re-evaluated (§III-D). With
		// the default objective the seeding pass runs as one parallel
		// batch (exact evaluations, so the values match the serial scan);
		// the look-ahead loop below is inherently sequential and runs on
		// the session, opened only after the batch has handed its prefix
		// recording back to the engine pool so the two share one buffer.
		// The infinite cutoff keeps every re-evaluated expectation exact.
		var expected []float64
		if opt.Objective == nil {
			expected = batchDeltas(batchEngine(ev, opt), ops, m, best, math.Inf(1), &stats)
			inc = ev.Engine().Incremental(m, nil)
			defer inc.Close()
		} else {
			expected = make([]float64, len(ops))
			for i := range ops {
				expected[i] = evalOp(ops[i])
			}
		}
		order := make([]int, len(ops))
		for stats.Iterations < maxIter {
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return expected[order[a]] > expected[order[b]] })
			cand, candDelta := -1, minImprove()
			for _, i := range order {
				// Look-ahead cutoff: once an improvement is found, only
				// operations whose expected improvement exceeds the
				// current improvement divided by gamma are re-checked.
				if cand >= 0 && expected[i] <= candDelta/gamma {
					break
				}
				d := evalOp(ops[i])
				expected[i] = d
				if d > candDelta {
					cand, candDelta = i, d
				}
			}
			if cand < 0 {
				// All operations were re-evaluated against the final
				// configuration (the paper's terminal full recompute) and
				// none improves: terminate.
				break
			}
			apply(ops[cand])
		}

	default:
		return nil, stats, fmt.Errorf("decomp: unknown heuristic %d", int(opt.Heuristic))
	}

	stats.Makespan = best
	return m, stats, nil
}

// mapOp is one mapping operation: remap a subgraph onto a device.
type mapOp struct {
	sg  sp.Subgraph
	dev int
}

// changes reports whether applying o to m would alter it.
func (o mapOp) changes(m mapping.Mapping) bool {
	for _, v := range o.sg {
		if m[v] != o.dev {
			return true
		}
	}
	return false
}

// batchEngine returns the shared evaluation engine sized to opt.Workers.
func batchEngine(ev *model.Evaluator, opt Options) *eval.Engine {
	eng := ev.Engine()
	if opt.Workers > 0 {
		eng = eng.WithWorkers(opt.Workers)
	}
	return eng
}

// batchDeltas evaluates every operation that would change m as one
// engine batch against the incumbent cost `best` and returns the
// improvement deltas aligned with ops: 0 for no-op operations, -Inf for
// infeasible results, best - makespan otherwise. Results above the
// cutoff follow the engine's clamping contract (they can never exceed
// best - cutoff, so a cutoff of best - epsilon keeps any delta that
// could be selected exact).
func batchDeltas(eng *eval.Engine, ops []mapOp, m mapping.Mapping, best, cutoff float64, stats *Stats) []float64 {
	batch := make([]eval.Op, 0, len(ops))
	idx := make([]int, 0, len(ops))
	for i := range ops {
		if ops[i].changes(m) {
			batch = append(batch, eval.Op{Base: m, Patch: ops[i].sg, Device: ops[i].dev})
			idx = append(idx, i)
		}
	}
	deltas := make([]float64, len(ops))
	for j, ms := range eng.EvaluateBatch(batch, cutoff) {
		stats.Evaluations++
		if ms == model.Infeasible {
			deltas[idx[j]] = math.Inf(-1)
		} else {
			deltas[idx[j]] = best - ms
		}
	}
	return deltas
}
