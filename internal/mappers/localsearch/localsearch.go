// Package localsearch implements metaheuristic refinement of device
// assignments on top of the batch evaluation engine: a simulated-
// annealing mapper and a batched large-neighborhood hill-climber. Both
// are extensions beyond the paper (conf_ipps_WilhelmP25 evaluates a
// genetic algorithm as its only metaheuristic baseline, §IV) and exist
// because the engine makes exactly their inner loop cheap: every move
// patches a single position of the incumbent mapping, so candidate
// batches share the incumbent's simulation prefix and are fanned out
// over the engine's worker pool with cutoff early exit.
//
// Both algorithms can start from scratch (the pure-CPU baseline, like
// the decomposition mappers) or refine any other mapper's output via
// Refine. The returned mapping is never worse than the (repaired)
// starting mapping: the incumbent may wander uphill, but the best
// mapping seen is tracked separately and returned.
//
// Determinism contract: for a fixed Options.Seed the result — mapping,
// makespan and every Stats counter — is identical across runs and
// across any Options.Workers value. All random draws happen on the
// calling goroutine in a fixed order, and the engine's EvaluateBatch
// returns index-aligned results, so no reduction depends on goroutine
// scheduling.
package localsearch

import (
	"fmt"
	"math"
	"math/rand"

	"spmap/internal/coord"
	"spmap/internal/eval"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
	"spmap/internal/sp"
)

// Algorithm selects the search scheme.
type Algorithm int

// Search schemes.
const (
	// Anneal is simulated annealing with Metropolis acceptance over
	// single-task moves, edge co-moves and series-parallel subgraph
	// co-moves, with a geometric cooling schedule paced by the
	// evaluation budget. Proposals are drawn in blocks and evaluated as
	// one engine batch against a temperature-dependent cutoff.
	Anneal Algorithm = iota
	// HillClimb is steepest-descent over the full large neighborhood
	// (every task x other device, every edge and every series-parallel
	// subgraph co-moved onto each device), evaluated as one engine batch
	// per step with the incumbent as cutoff; at a local optimum it
	// perturbs a few random tasks of the best-seen mapping (an
	// iterated-local-search kick) and climbs again until the budget is
	// spent.
	HillClimb
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if a == Anneal {
		return "Anneal"
	}
	return "HillClimb"
}

// Options configure the local search; zero values select the defaults.
type Options struct {
	// Algorithm selects annealing (default) or hill climbing.
	Algorithm Algorithm
	// Seed drives the deterministic RNG. Equal seeds give identical
	// results regardless of Workers.
	Seed int64
	// Workers bounds the evaluation engine's worker pool (0 selects
	// GOMAXPROCS, 1 forces serial). The result is identical for any
	// value; see the package determinism contract.
	Workers int
	// Budget caps the number of engine evaluations (default 50100, the
	// paper GA's default budget of population x (generations+1) =
	// 100 x 501, making equal-budget comparisons the default).
	Budget int
	// Init is the starting mapping (refinement mode). It is cloned and
	// repaired; nil starts from the pure-CPU baseline.
	Init mapping.Mapping

	// WTime and WEnergy select the multi-objective weighted mode: when
	// WEnergy > 0 the search minimizes the normalized scalarization
	//
	//	cost = WTime * makespan/baseMakespan + WEnergy * energy/baseEnergy
	//
	// (the same contract as model.Evaluator.WeightedObjective, baselines
	// from the pure-CPU mapping) instead of the raw makespan, with
	// (makespan, energy) pairs evaluated on the engine's multi-objective
	// batch path. WEnergy == 0 (the default) is the single-objective
	// makespan search, bit-identical to the weights-free code path.
	// Weights must be non-negative. In weighted mode the never-worse
	// guarantee and the determinism contract hold for the cost.
	WTime, WEnergy float64

	// Observer, if non-nil in weighted mode, receives every feasible
	// incumbent the search moves to (the start, accepted moves, kicks)
	// with its exact makespan, energy and a private mapping copy —
	// the hook Pareto drivers use to harvest front candidates beyond
	// the single returned best. Ignored in single-objective mode.
	Observer func(makespan, energy float64, m mapping.Mapping)

	// Sync, if non-nil, is invoked at deterministic points of the search
	// (annealing block boundaries, hill-climb step boundaries) whenever
	// at least SyncEvery evaluations accrued since the last call — the
	// portfolio runner's coordination hook. The directive may adjust the
	// budget, stop the search, or inject an elite incumbent: in
	// single-objective mode an elite whose EliteValue improves on the
	// incumbent makespan is adopted without spending an evaluation
	// (EliteValue must be exact under the same engine); in weighted mode
	// elite injection is ignored (EliteValue is not comparable across
	// differently-weighted cost functions). SyncEvery <= 0 disables the
	// hook. The determinism contract extends to hooked runs as long as
	// Sync itself is deterministic.
	Sync      coord.SyncFunc
	SyncEvery int
}

// Stats reports local-search effort and outcome. All counters are
// deterministic for a fixed seed, regardless of Workers.
type Stats struct {
	Algorithm Algorithm
	// Evaluations counts engine evaluations (including proposals
	// discarded as stale after an accepted annealing move).
	Evaluations int
	// Moves counts applied mapping changes.
	Moves int
	// Kicks counts hill-climber perturbations (0 for annealing).
	Kicks int
	// Syncs counts Sync-hook invocations; Injected counts elites adopted
	// as the incumbent (both 0 without a hook). Stopped records that a
	// Stop directive ended the search before its budget ran out (the
	// portfolio's gap-adaptive early termination).
	Syncs    int
	Injected int
	Stopped  bool
	// StartMakespan is the makespan of the (repaired) starting mapping;
	// Makespan is the best makespan found. In single-objective mode
	// Makespan <= StartMakespan always holds (for a feasible start); in
	// weighted mode the never-worse guarantee applies to the weighted
	// cost instead, so the best mapping's makespan may exceed the
	// start's when energy weight buys it.
	StartMakespan float64
	Makespan      float64
	// Energy is the compute energy of the returned mapping.
	Energy float64
}

// MapWithEvaluator runs local search under ev's cost function from
// opt.Init, or from the pure-CPU baseline when Init is nil.
func MapWithEvaluator(ev *model.Evaluator, opt Options) (mapping.Mapping, Stats, error) {
	return search(ev, opt)
}

// Refine polishes an existing mapping (any mapper's output) with local
// search under ev's cost function. The result is never worse than the
// repaired input mapping.
func Refine(ev *model.Evaluator, m mapping.Mapping, opt Options) (mapping.Mapping, Stats, error) {
	opt.Init = m
	return search(ev, opt)
}

// searcher is the shared state of one local-search run. The search
// loops minimize an objective *value*: in single-objective mode the
// value is the engine makespan itself; in weighted mode it is the
// normalized (makespan, energy) scalarization and the true objectives
// of the incumbent/best are tracked alongside.
type searcher struct {
	g     *graph.DAG
	p     *platform.Platform
	eng   *eval.Engine
	rng   *rand.Rand
	n, nd int
	opt   Options
	stats Stats

	cur     mapping.Mapping // incumbent (mutated in place; aliased by op bases)
	curVal  float64         // incumbent objective value
	best    mapping.Mapping // best-seen (the returned mapping)
	bestVal float64

	// inc, in single-objective mode, is the engine's incremental
	// evaluation session around the incumbent: candidate moves resume
	// at their first patched position against a persistent recording
	// that accepted moves fold in place (Apply) instead of
	// re-recording. Values at or below the bound are exact and
	// bit-identical to the batch path, so every accept/argmin decision —
	// and therefore every mapping, stat and golden — is unchanged; only
	// the evaluation cost drops. nil in weighted mode (which keeps the
	// engine's multi-objective batch path) and on degenerate instances.
	inc  *eval.Incremental
	vals []float64 // reused result buffer of the session path

	lastSync   int // evaluations consumed at the last Sync invocation
	schedStart int // evaluations at the last annealing-schedule restart

	// Weighted (multi-objective) mode.
	mo             bool
	objs           []eval.Objective // vector objectives of the weighted batch path
	wt, we         float64          // normalized-objective weights
	baseMs, baseEn float64          // pure-CPU normalization baselines (clamped > 0)
	startVal       float64          // start value (paces the annealing schedule)
	curMS, curEn   float64          // true objectives of the incumbent
	bestMS, bestEn float64          // true objectives of the best-seen mapping
	lastMS, lastEn []float64        // per-op true objectives of the last MO batch

	// edges (edge endpoint pairs) and subs (the multi-node sets of the
	// paper's series-parallel subgraph decomposition, §III-C) extend both
	// neighborhoods with co-moves: remapping a connected group onto one
	// device in a single patched evaluation. Co-moves escape the
	// single-move plateaus around streaming chains — a chain must land on
	// the FPGA together before any individual move pays off, the same
	// observation that motivates the paper's subgraph operations.
	edges [][2]graph.NodeID
	subs  []sp.Subgraph
}

func search(ev *model.Evaluator, opt Options) (mapping.Mapping, Stats, error) {
	g, p := ev.G, ev.P
	if err := validate(g, p, opt); err != nil {
		return nil, Stats{Algorithm: opt.Algorithm}, err
	}
	if opt.Budget <= 0 {
		opt.Budget = 50100 // the paper GA's default evaluation budget
	}
	s := &searcher{
		g: g, p: p,
		eng: ev.Engine(),
		rng: rand.New(rand.NewSource(opt.Seed)),
		n:   g.NumTasks(),
		nd:  p.NumDevices(),
		opt: opt,
		mo:  opt.WEnergy > 0,
		wt:  opt.WTime, we: opt.WEnergy,
	}
	if s.mo {
		// The weighted scalarization over the vector objective API: the
		// [makespan, energy] pair runs as one fused batch pass.
		s.objs = []eval.Objective{eval.MakespanObjective(), eval.EnergyObjective()}
	}
	if opt.Workers > 0 {
		s.eng = s.eng.WithWorkers(opt.Workers)
	}
	s.stats.Algorithm = opt.Algorithm

	if opt.Init != nil {
		s.cur = opt.Init.Clone().Repair(g, p)
	} else {
		s.cur = mapping.Baseline(g, p)
	}
	if s.mo {
		// Normalization baselines, mirroring WeightedObjective's
		// contract, served from the evaluator's baseline cache so a
		// weight sweep over one shared evaluator pays for the baseline
		// simulation once (the evaluator's makespan and reference energy
		// are bit-identical to the engine's).
		s.baseMs = ev.BaselineMakespan()
		s.baseEn = ev.Energy(mapping.Baseline(g, p))
		if opt.Init == nil {
			// The start IS the baseline: reuse its (raw) objectives.
			s.curMS, s.curEn = s.baseMs, s.baseEn
		} else {
			s.curMS = s.eng.Makespan(s.cur)
			s.curEn = s.eng.Energy(s.cur)
		}
		if s.baseMs <= 0 {
			s.baseMs = 1
		}
		if s.baseEn <= 0 {
			s.baseEn = 1
		}
		s.curVal = s.cost(s.curMS, s.curEn)
		s.observe()
	} else {
		s.curVal = s.eng.Makespan(s.cur)
		s.curMS = s.curVal
	}
	s.stats.Evaluations++
	s.edges = make([][2]graph.NodeID, 0, g.NumEdges())
	for v := 0; v < s.n; v++ {
		id := graph.NodeID(v)
		for _, ei := range g.InEdges(id) {
			s.edges = append(s.edges, [2]graph.NodeID{g.Edge(ei).From, id})
		}
	}
	// The multi-node series-parallel subgraph sets (singletons are the
	// single-move neighborhood already). Decomposition is deterministic
	// under the search seed; on the rare failure the co-move pool just
	// stays smaller.
	if sets, _, err := sp.SeriesParallelSubgraphs(g, sp.Options{Seed: opt.Seed}); err == nil {
		for _, sub := range sets {
			if len(sub) >= 2 {
				s.subs = append(s.subs, sub)
			}
		}
	}
	s.stats.StartMakespan = s.curMS
	s.startVal = s.curVal
	s.best = s.cur.Clone()
	s.bestVal = s.curVal
	s.bestMS, s.bestEn = s.curMS, s.curEn

	// Degenerate instances leave nothing to search.
	if s.n > 0 && s.nd > 1 && s.curVal > 0 {
		if !s.mo {
			// Single-objective searches evaluate every move through one
			// incremental session with no gate, so every replay has the
			// dominance abort enabled. Weighted mode keeps the engine's
			// multi-objective batch path, whose patched ops resume from
			// the batch's shared prefix recording on their own.
			s.inc = s.eng.Incremental(s.cur, nil)
		}
		switch opt.Algorithm {
		case HillClimb:
			s.hillClimb()
		default:
			s.anneal()
		}
		if !s.mo {
			s.inc.Close()
		}
	}
	s.stats.Makespan = s.bestMS
	if s.mo {
		s.stats.Energy = s.bestEn
	} else {
		s.stats.Energy = s.eng.Energy(s.best)
	}
	return s.best, s.stats, nil
}

func validate(g *graph.DAG, p *platform.Platform, opt Options) error {
	if opt.Init != nil {
		if err := opt.Init.Validate(g, p); err != nil {
			return err
		}
	}
	if opt.WTime < 0 || opt.WEnergy < 0 {
		return fmt.Errorf("localsearch: negative objective weights (%g, %g)", opt.WTime, opt.WEnergy)
	}
	return nil
}

// cost scalarizes exact (makespan, energy) under the weighted mode's
// normalized objective; infeasible in, Infeasible out.
func (s *searcher) cost(ms, en float64) float64 {
	if ms == model.Infeasible || en == model.Infeasible {
		return model.Infeasible
	}
	return s.wt*ms/s.baseMs + s.we*en/s.baseEn
}

// msCutFor converts a bound on the objective value into a makespan
// cutoff for the engine. In single-objective mode the value is the
// makespan. In weighted mode any candidate with cost <= bound has
// wt*ms/baseMs <= bound (the energy term is non-negative), so
// ms <= bound*baseMs/wt; the tiny inflation keeps the implication safe
// under floating-point rounding (an inflated cutoff only costs early
// exit, never exactness).
func (s *searcher) msCutFor(bound float64) float64 {
	if !s.mo {
		return bound
	}
	if s.wt <= 0 {
		return math.Inf(1) // pure energy: the makespan is unconstrained
	}
	return bound * s.baseMs / s.wt * (1 + 1e-9)
}

// evalBatch evaluates ops and returns index-aligned objective values
// against the value bound: values at or below the bound are exact;
// Infeasible marks infeasible candidates; any other value above the
// bound is a rejection and says only that the candidate's value exceeds
// it (the session's math.Nextafter(bound, +Inf), or +Inf in weighted
// mode). In weighted mode the per-op true objectives land in
// lastMS/lastEn (exact wherever the value is at or below the bound).
func (s *searcher) evalBatch(ops []eval.Op, bound float64) []float64 {
	if !s.mo {
		vals := s.resultBuf(len(ops))
		for i := range ops {
			vals[i] = s.inc.Evaluate(ops[i].Patch, ops[i].Device, bound)
		}
		return vals
	}
	msCut := s.msCutFor(bound)
	cols := s.eng.EvaluateBatchVec(ops, s.objs, msCut)
	ms, en := cols[0], cols[1]
	s.lastMS, s.lastEn = ms, en
	vals := make([]float64, len(ops))
	for i := range ms {
		switch {
		case ms[i] == model.Infeasible:
			vals[i] = model.Infeasible
		case ms[i] > msCut:
			// Rejected makespan: the candidate's cost exceeds the bound
			// (see msCutFor).
			vals[i] = math.Inf(1)
		default:
			vals[i] = s.cost(ms[i], en[i])
		}
	}
	return vals
}

// evalBatchMin is the hill climber's session-path variant of evalBatch:
// ops are evaluated serially with the cutoff progressively tightened to
// the best value seen so far. The subsequent argmin (strict improvement
// over the running winner, lowest index on ties) is provably unchanged:
// any candidate at or below the running cutoff is exact, and a rejected
// one comes back as math.Nextafter(cut, +Inf), above the running winner,
// so it could not have won — the tightening only buys earlier simulation
// aborts. Must not be used where every exact value matters (annealing's
// Metropolis scan).
func (s *searcher) evalBatchMin(ops []eval.Op, bound float64) []float64 {
	vals := s.resultBuf(len(ops))
	cut := bound
	for i := range ops {
		v := s.inc.Evaluate(ops[i].Patch, ops[i].Device, cut)
		if v < cut {
			cut = v
		}
		vals[i] = v
	}
	return vals
}

// resultBuf returns the reused session-path result slice resized to n.
func (s *searcher) resultBuf(n int) []float64 {
	if cap(s.vals) < n {
		s.vals = make([]float64, n)
	}
	return s.vals[:n]
}

// moveTo commits an accepted batch candidate: the incumbent mapping was
// already patched by the caller; i indexes the candidate within the
// last evaluated batch.
func (s *searcher) moveTo(i int, val float64) {
	s.curVal = val
	if s.mo {
		s.curMS, s.curEn = s.lastMS[i], s.lastEn[i]
		s.observe()
	} else {
		s.curMS = val
	}
	s.stats.Moves++
	s.record()
}

// observe reports the (feasible) incumbent to the weighted-mode
// observer with a private mapping copy.
func (s *searcher) observe() {
	if s.mo && s.opt.Observer != nil && s.curVal != model.Infeasible {
		s.opt.Observer(s.curMS, s.curEn, s.cur.Clone())
	}
}

// maybeSync invokes the coordination hook once SyncEvery evaluations
// accrued since the last call, applying its directive (budget delta,
// elite adoption, stop). It reports whether the search must stop.
// Called only at deterministic loop boundaries, so hooked runs keep the
// package determinism contract.
func (s *searcher) maybeSync() (stop bool) {
	if s.opt.Sync == nil || s.opt.SyncEvery <= 0 ||
		s.stats.Evaluations-s.lastSync < s.opt.SyncEvery {
		return false
	}
	s.lastSync = s.stats.Evaluations
	s.stats.Syncs++
	d := s.opt.Sync(coord.SyncInfo{
		Evaluations: s.stats.Evaluations,
		Budget:      s.opt.Budget,
		BestValue:   s.bestVal,
		Best:        s.best.Clone(),
	})
	s.opt.Budget += d.BudgetDelta
	// Elite adoption is free (no evaluation): the coordinator forwards
	// the exact value another member computed on the shared engine. In
	// weighted mode values from other members are not comparable to this
	// searcher's scalarization, so injection is skipped.
	if !s.mo && d.Elite != nil && len(d.Elite) == len(s.cur) && d.EliteValue < s.curVal {
		copy(s.cur, d.Elite)
		s.inc.Rebase(s.cur) // foreign incumbent: lazy re-record
		s.curVal = d.EliteValue
		s.curMS = d.EliteValue
		s.stats.Injected++
		s.record()
		// Adoption restarts the annealing cooling schedule over the
		// remaining budget (a reheat): continuing a nearly-frozen
		// schedule from a foreign incumbent would only polish it, while
		// an iterated restart explores around it — the portfolio's
		// restart semantics.
		s.schedStart = s.stats.Evaluations
	}
	if d.Stop {
		s.stats.Stopped = true
	}
	return d.Stop
}

// record updates the best-seen mapping after the incumbent changed.
func (s *searcher) record() {
	if s.curVal < s.bestVal {
		copy(s.best, s.cur)
		s.bestVal = s.curVal
		s.bestMS, s.bestEn = s.curMS, s.curEn
	}
}

// changes reports whether co-moving nodes to device d would alter m.
func changes(m mapping.Mapping, nodes []graph.NodeID, d int) bool {
	for _, v := range nodes {
		if m[v] != d {
			return true
		}
	}
	return false
}

// improvementEps mirrors the decomposition mappers' relative threshold
// below which a makespan change does not count as an improvement,
// guaranteeing termination under floating-point arithmetic.
const improvementEps = 1e-12
