// Package portfolio implements deterministic algorithm racing over the
// repository's mapper portfolio: the decomposition mapper with
// refinement, the HEFT/PEFT seeds with refinement, simulated annealing,
// the batched hill-climber and the genetic algorithm all run
// concurrently against one task-mapping instance under a shared
// evaluation budget — the equal-budget comparison of the paper's
// evaluation (§IV) turned into a single combined mapper, in the spirit
// of PEFT's lookahead-baseline races [Arabnejad & Barbosa].
//
// Three mechanisms make the race more than the sum of its members:
//
//   - A shared memoizing evaluation cache (eval.Cache) sits behind every
//     member, so a candidate mapping re-proposed by a second mapper is
//     served from memory instead of being simulated again.
//   - Cross-pollination: at every coordination round the best mapping
//     found by any member is published and injected as an elite into the
//     still-running searches (a restart for the local searches, a
//     population member for the GA).
//   - Budget accounting: members that stall — no improvement across
//     consecutive rounds — donate half of their remaining evaluation
//     budget to the current leader.
//
// The race also certifies its result: the coordinator computes a proven
// makespan lower bound for the instance (internal/bounds) and reports
// the returned mapping's certified optimality gap in Stats. With
// Options.GapTarget set, the race becomes gap-adaptive — it terminates
// as soon as the incumbent's certified gap reaches the target, instead
// of burning the remaining budget on improvements that can no longer
// matter. The stop decision depends only on the deterministic rendezvous
// state and the (pure, instance-level) bound, never on wall clock, so
// the determinism contract extends to gap-stopped runs unchanged.
//
// Determinism contract: for a fixed Options.Seed the result — mapping,
// makespan and every deterministic Stats field — is identical across
// runs and across any Options.Workers value, with or without the cache.
// Members race on real goroutines, but all coordination is a bulk-
// synchronous rendezvous: each member blocks at deterministic points of
// its own search (internal/coord), and the coordinator collects exactly
// one event per live member per round, processing them in member-index
// order. No decision ever depends on goroutine timing. The cache cannot
// perturb results either: it only ever returns exact values that a
// fresh simulation would reproduce bit-for-bit (see eval.Cache). Cache
// telemetry (hit counts) is the one wall-clock-dependent output and is
// reported separately from the deterministic stats (Stats.Cache,
// excluded by Stats.Deterministic).
package portfolio

import (
	"fmt"
	"math"

	"spmap/internal/bounds"
	"spmap/internal/coord"
	"spmap/internal/eval"
	"spmap/internal/graph"
	"spmap/internal/mappers/decomp"
	"spmap/internal/mappers/ga"
	"spmap/internal/mappers/heft"
	"spmap/internal/mappers/localsearch"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
)

// MemberKind identifies one racing mapper.
type MemberKind int

// Portfolio members.
const (
	// SPFFRefine runs the series-parallel FirstFit decomposition mapper
	// and spends the rest of its budget on annealing refinement.
	SPFFRefine MemberKind = iota
	// HEFTRefine refines the HEFT seed mapping.
	HEFTRefine
	// PEFTRefine refines the PEFT seed mapping.
	PEFTRefine
	// Anneal runs simulated annealing from the pure-CPU baseline.
	Anneal
	// HillClimb runs the batched hill-climber from the pure-CPU baseline.
	HillClimb
	// NSGA2 runs the single-objective genetic algorithm.
	NSGA2

	numMemberKinds
)

// String implements fmt.Stringer.
func (k MemberKind) String() string {
	switch k {
	case SPFFRefine:
		return "SPFF+Refine"
	case HEFTRefine:
		return "HEFT+Refine"
	case PEFTRefine:
		return "PEFT+Refine"
	case Anneal:
		return "Anneal"
	case HillClimb:
		return "HillClimb"
	case NSGA2:
		return "NSGA2"
	}
	return fmt.Sprintf("MemberKind(%d)", int(k))
}

// DefaultMembers is the full portfolio, in coordination order.
func DefaultMembers() []MemberKind {
	return []MemberKind{SPFFRefine, HEFTRefine, PEFTRefine, Anneal, HillClimb, NSGA2}
}

// Options configure the portfolio runner; zero values select defaults.
type Options struct {
	// Members selects and orders the racing mappers (default
	// DefaultMembers). The order is part of the determinism contract:
	// coordination processes members in this order.
	Members []MemberKind
	// Budget is the shared evaluation budget (default 50100, the paper
	// GA's budget), split equally across members at the start and then
	// reallocated by the stall accountant. Budgets are logical: cache
	// hits count, so equal-budget comparisons against single mappers
	// stay honest. Search phases never overshoot; the SPFF member's
	// decomposition opener is not sliceable and may overrun a share
	// smaller than its own evaluation count (the member then stops and
	// reports the overrun).
	Budget int
	// Seed drives every member's deterministic RNG (offset per member).
	Seed int64
	// Workers bounds the shared evaluation engine's worker pool
	// (0 selects GOMAXPROCS). The result is identical for any value.
	Workers int
	// SyncEvery is the number of evaluations a member consumes between
	// coordination rendezvous (default: one eighth of the per-member
	// budget, at least 32).
	SyncEvery int
	// DisableCache turns the shared evaluation cache off (results are
	// identical either way; the cache only saves wall-clock time).
	DisableCache bool
	// Cache, if non-nil, is used as the shared evaluation cache instead
	// of a fresh one — the online-replay warm path, which keeps one cache
	// alive per compiled kernel across repair races. It must be fresh or
	// bound to the evaluator's kernel (eval.Cache panics otherwise).
	// Ignored when DisableCache is set.
	Cache *eval.Cache
	// Init, if non-nil, warm-starts the race: the (validated, repaired)
	// mapping is evaluated once and installed as the round-0 incumbent,
	// so the result is never worse than Init and stalled members adopt
	// it as an elite — the online-replay repair entry point. Stats.Best
	// stays -1 when no member improves on it.
	Init mapping.Mapping
	// GapTarget, when positive, arms gap-adaptive termination: in
	// addition to the always-on combinatorial bounds the coordinator pays
	// for the LP-relaxation bound (internal/bounds), and stops the race
	// as soon as the incumbent's certified gap (makespan - bound) /
	// makespan drops to GapTarget or below. Members receive the Stop
	// directive at their next rendezvous, so termination is deterministic
	// — a function of (round, member index, evaluations), never of wall
	// clock. Must lie in [0, 1); zero disables early stopping (the
	// combinatorial bound is still certified and reported in Stats, and
	// results are bit-identical to a run without this field).
	GapTarget float64
}

// MemberStats reports one member's deterministic outcome.
type MemberStats struct {
	Kind MemberKind
	// Budget is the member's final allocation after all stealing/grants;
	// Evaluations is what it actually consumed.
	Budget      int
	Evaluations int
	// Syncs counts coordination rendezvous; Injected counts elites the
	// member adopted.
	Syncs    int
	Injected int
	// Stopped records that the member ended on a coordinator Stop
	// directive (gap-adaptive termination) rather than budget exhaustion.
	Stopped bool
	// Makespan is the best makespan the member found itself (after
	// adopting injected elites it can equal the portfolio best).
	Makespan float64
}

// Stats reports a portfolio run. All fields except Cache are
// deterministic for a fixed seed, regardless of Workers.
type Stats struct {
	// Evaluations sums the members' engine evaluations (logical: cache
	// hits included).
	Evaluations int
	// Rounds counts coordination rounds.
	Rounds int
	// Best is the index (into Members) of the member that found the
	// returned mapping first (-1 when no member improved on the
	// warm-start incumbent Options.Init); Makespan is its exact makespan.
	Best     int
	Makespan float64
	// BudgetMoved is the total evaluation budget reallocated from
	// stalled members to leaders.
	BudgetMoved int
	Members     []MemberStats
	// LowerBound is the certified makespan lower bound for the instance
	// (0 when no method produced a useful bound); BoundName names the
	// method that achieved it. Gap is the returned mapping's certified
	// optimality gap, (Makespan - LowerBound)/Makespan clamped to [0, 1]
	// (vacuously 1 without a useful bound). All three are deterministic:
	// bounds are pure instance functions.
	LowerBound float64
	BoundName  string
	Gap        float64
	// GapStop records that the race terminated early because the
	// incumbent's certified gap reached Options.GapTarget; BudgetSaved is
	// the total evaluation budget the early stop left unspent (0 when the
	// race ran to budget exhaustion).
	GapStop     bool
	BudgetSaved int
	// Cache is the shared evaluation cache's telemetry. Hit counts
	// depend on goroutine timing (two members may race to the same
	// mapping) and are therefore NOT covered by the determinism
	// contract; compare Deterministic() renderings instead.
	Cache eval.CacheStats
}

// Deterministic returns a copy of the stats with the wall-clock-
// dependent cache telemetry zeroed — the value the determinism matrix
// and the cache differential test compare.
func (s Stats) Deterministic() Stats {
	s.Cache = eval.CacheStats{}
	return s
}

// stallRounds is the number of consecutive no-improvement rounds after
// which a member is considered stalled and donates budget.
const stallRounds = 2

// improvementEps mirrors the mappers' relative improvement threshold.
const improvementEps = 1e-12

// Map races the portfolio on (g, p) with a fresh evaluator (BFS-only
// schedule set; use MapWithEvaluator to control the schedule set).
func Map(g *graph.DAG, p *platform.Platform, opt Options) (mapping.Mapping, Stats, error) {
	return MapWithEvaluator(model.NewEvaluator(g, p), opt)
}

// memberResult is a finished member's final report.
type memberResult struct {
	m       mapping.Mapping
	val     float64
	evals   int
	syncs   int
	inj     int
	stopped bool
	err     error
}

// memberRuntime is the coordinator's per-member bookkeeping.
type memberRuntime struct {
	kind   MemberKind
	budget int
	// Last reported progress.
	evals   int
	bestVal float64
	best    mapping.Mapping
	syncs   int
	inj     int
	// Round state.
	synced   bool // parked at the rendezvous this round
	finished bool
	stopped  bool // ended on a Stop directive
	stall    int
	delta    int // budget delta to deliver with the next reply
	err      error

	req  chan coord.SyncInfo
	rep  chan coord.SyncDirective
	done chan memberResult
}

// MapWithEvaluator is Map with a caller-supplied evaluator (to control
// the schedule set and reuse a compiled engine). Beyond the lazy
// compilation of its engine, the evaluator is left untouched; members
// run on private clones sharing one cached engine.
func MapWithEvaluator(ev *model.Evaluator, opt Options) (mapping.Mapping, Stats, error) {
	kinds := opt.Members
	if len(kinds) == 0 {
		kinds = DefaultMembers()
	}
	var seen [numMemberKinds]bool
	for _, k := range kinds {
		if k < 0 || k >= numMemberKinds {
			return nil, Stats{}, fmt.Errorf("portfolio: unknown member kind %d", int(k))
		}
		// Duplicates would break per-kind reporting and the budget
		// headroom bounds (grants scale with the member count).
		if seen[k] {
			return nil, Stats{}, fmt.Errorf("portfolio: duplicate member kind %s", k)
		}
		seen[k] = true
	}
	if opt.GapTarget != 0 && (math.IsNaN(opt.GapTarget) || opt.GapTarget < 0 || opt.GapTarget >= 1) {
		return nil, Stats{}, fmt.Errorf("portfolio: gap target %v outside [0, 1)", opt.GapTarget)
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = 50100 // the paper GA's evaluation budget
	}
	perMember := budget / len(kinds)
	if perMember < 1 {
		perMember = 1
	}
	syncEvery := opt.SyncEvery
	if syncEvery <= 0 {
		syncEvery = perMember / 8
		if syncEvery < 32 {
			syncEvery = 32
		}
	}

	// One engine behind everything: the caller's schedule set, the
	// requested worker fan-out, and (by default) the shared memoizing
	// cache. Each member evaluates through a private evaluator clone so
	// scratch buffers never race.
	var cache *eval.Cache
	eng := ev.Engine()
	if opt.Workers > 0 {
		eng = eng.WithWorkers(opt.Workers)
	}
	if !opt.DisableCache && eng.Cacheable() {
		if cache = opt.Cache; cache == nil {
			cache = eval.NewCache()
		}
		eng = eng.WithCache(cache)
	}
	root := ev.Clone().WithEngine(eng)

	// Certify the instance's makespan lower bound up front, before any
	// member goroutine starts: the combinatorial bounds are always cheap
	// enough to report, and an armed GapTarget additionally pays for the
	// LP relaxation, whose tighter bound is what lets the gap test fire.
	// Bounds are pure instance functions (no schedules, no randomness, no
	// clock), so this adds nothing nondeterministic.
	methods := bounds.Combinatorial()
	if opt.GapTarget > 0 {
		methods = append(methods, bounds.LPRelaxation{})
	}
	cert := bounds.Certify(ev, methods...)

	members := make([]*memberRuntime, len(kinds))
	for i, k := range kinds {
		mr := &memberRuntime{
			kind:    k,
			budget:  perMember,
			bestVal: math.Inf(1),
			req:     make(chan coord.SyncInfo),
			rep:     make(chan coord.SyncDirective),
			done:    make(chan memberResult, 1),
		}
		members[i] = mr
		mev := root.Clone()
		seed := opt.Seed + int64(i)*1_000_003
		initialBudget := mr.budget
		sync := func(info coord.SyncInfo) coord.SyncDirective {
			mr.req <- info
			return <-mr.rep
		}
		go func() {
			mr.done <- runMember(mr.kind, mev, seed, initialBudget, syncEvery, sync)
		}()
	}

	stats := Stats{Best: -1, Makespan: math.Inf(1), Members: make([]MemberStats, len(members))}
	globalVal := math.Inf(1)
	var globalBest mapping.Mapping
	leader := -1
	initEvals := 0
	if opt.Init != nil {
		// Warm start: the incumbent enters the race as the round-0 best,
		// costing one (exact) evaluation. Members that stall adopt it via
		// the usual elite publication; the returned mapping can only
		// improve on it.
		if err := opt.Init.Validate(ev.G, ev.P); err != nil {
			return nil, stats, fmt.Errorf("portfolio: warm-start mapping: %w", err)
		}
		warm := opt.Init.Clone().Repair(ev.G, ev.P)
		globalVal, globalBest = eng.Makespan(warm), warm
		initEvals = 1
	}

	live := len(members)
	stopping := false
	for live > 0 {
		stats.Rounds++
		// Collect exactly one event — rendezvous or completion — from
		// every live member, in member-index order. Each member's event
		// sequence is a deterministic function of its seed and budget, so
		// the collected round state is too.
		for _, mr := range members {
			if mr.finished {
				continue
			}
			select {
			case info := <-mr.req:
				mr.synced = true
				mr.syncs++
				updateProgress(mr, info.Evaluations, info.BestValue, info.Best)
			case res := <-mr.done:
				mr.finished = true
				live--
				mr.err = res.err
				mr.syncs, mr.inj, mr.stopped = res.syncs, res.inj, res.stopped
				updateProgress(mr, res.evals, res.val, res.m)
			}
		}
		// Publish the round's incumbent (first member wins ties).
		for i, mr := range members {
			if mr.best != nil && mr.bestVal < globalVal {
				globalVal, globalBest, leader = mr.bestVal, mr.best, i
			}
		}
		// Gap-adaptive termination: once the published incumbent's
		// certified gap reaches the target, every member is stopped at its
		// next rendezvous (parked members this very round). The decision
		// reads only the deterministic round state and the instance bound.
		if opt.GapTarget > 0 && !stopping &&
			bounds.Gap(globalVal, cert.Value) <= opt.GapTarget {
			stopping = true
			stats.GapStop = true
		}
		// Budget accounting: stalled members donate half their remaining
		// budget to the leader (or, when the leader already finished, to
		// the best still-racing member). Pointless once the race is
		// stopping — nobody will spend the grant.
		if !stopping {
			recipient := -1
			if leader >= 0 && !members[leader].finished {
				recipient = leader
			} else {
				for i, mr := range members {
					if mr.finished {
						continue
					}
					if recipient < 0 || mr.bestVal < members[recipient].bestVal {
						recipient = i
					}
				}
			}
			if recipient >= 0 {
				moved := 0
				for i, mr := range members {
					if i == recipient || !mr.synced || mr.stall < stallRounds {
						continue
					}
					remaining := mr.budget - mr.evals
					if remaining < 2*syncEvery {
						continue // too little left to be worth taking
					}
					steal := remaining / 2
					mr.delta -= steal
					mr.budget -= steal
					moved += steal
				}
				if moved > 0 {
					members[recipient].delta += moved
					members[recipient].budget += moved
					stats.BudgetMoved += moved
				}
			}
		}
		// Release every parked member with its directive.
		for _, mr := range members {
			if !mr.synced {
				continue
			}
			mr.synced = false
			d := coord.SyncDirective{BudgetDelta: mr.delta, LowerBound: cert.Value}
			mr.delta = 0
			if globalBest != nil {
				d.Gap = bounds.Gap(globalVal, cert.Value)
			}
			if stopping {
				d.Stop = true
				mr.rep <- d
				continue
			}
			// Publish the incumbent only to members that stopped improving
			// on their own: injecting into a still-improving trajectory
			// would collapse the portfolio's diversity onto the first
			// local optimum found.
			if globalBest != nil && globalVal < mr.bestVal && mr.stall >= 1 {
				d.Elite, d.EliteValue = globalBest, globalVal
			}
			mr.rep <- d
		}
	}

	for i, mr := range members {
		if mr.err != nil {
			return nil, stats, fmt.Errorf("portfolio: member %s: %w", mr.kind, mr.err)
		}
		stats.Members[i] = MemberStats{
			Kind:        mr.kind,
			Budget:      mr.budget,
			Evaluations: mr.evals,
			Syncs:       mr.syncs,
			Injected:    mr.inj,
			Stopped:     mr.stopped,
			Makespan:    mr.bestVal,
		}
		stats.Evaluations += mr.evals
	}
	stats.Evaluations += initEvals
	if globalBest == nil {
		return nil, stats, fmt.Errorf("portfolio: no member produced a mapping")
	}
	stats.Best = leader
	stats.Makespan = globalVal
	stats.LowerBound = cert.Value
	stats.BoundName = cert.Name
	stats.Gap = bounds.Gap(globalVal, cert.Value)
	if stats.GapStop {
		for _, mr := range members {
			if r := mr.budget - mr.evals; r > 0 {
				stats.BudgetSaved += r
			}
		}
	}
	if cache != nil {
		stats.Cache = cache.Stats()
	}
	return globalBest.Clone(), stats, nil
}

// updateProgress folds a member's reported progress into its runtime
// record and advances its stall counter.
func updateProgress(mr *memberRuntime, evals int, val float64, best mapping.Mapping) {
	mr.evals = evals
	improved := best != nil && (mr.best == nil || val < mr.bestVal*(1-improvementEps))
	if improved {
		mr.bestVal = val
		mr.best = best
		mr.stall = 0
	} else {
		mr.stall++
	}
}

// runMember executes one member's full search on its private evaluator
// clone and returns its final report. Every member's random stream
// derives from its own seed; sync is the blocking rendezvous hook.
func runMember(kind MemberKind, ev *model.Evaluator, seed int64, budget, syncEvery int, sync coord.SyncFunc) memberResult {
	lsOpts := localsearch.Options{
		Seed: seed, Budget: budget, Sync: sync, SyncEvery: syncEvery,
	}
	switch kind {
	case Anneal, HillClimb:
		if kind == HillClimb {
			lsOpts.Algorithm = localsearch.HillClimb
		}
		m, st, err := localsearch.MapWithEvaluator(ev, lsOpts)
		return memberResult{m: m, val: st.Makespan, evals: st.Evaluations, syncs: st.Syncs, inj: st.Injected, stopped: st.Stopped, err: err}

	case HEFTRefine, PEFTRefine:
		variant := heft.HEFT
		if kind == PEFTRefine {
			variant = heft.PEFT
		}
		seedMap := heft.MapWithEvaluator(ev, variant)
		m, st, err := localsearch.Refine(ev, seedMap, lsOpts)
		return memberResult{m: m, val: st.Makespan, evals: st.Evaluations, syncs: st.Syncs, inj: st.Injected, stopped: st.Stopped, err: err}

	case SPFFRefine:
		m, dst, err := decomp.MapWithEvaluator(ev, decomp.Options{
			Strategy: decomp.SeriesParallel, Heuristic: decomp.FirstFit,
		})
		if err != nil {
			return memberResult{err: err}
		}
		remaining := budget - dst.Evaluations
		if remaining <= 0 {
			// The decomposition opener already overran the allocation (it
			// is not sliceable); report it as consumed and stop.
			return memberResult{m: m, val: dst.Makespan, evals: dst.Evaluations}
		}
		lsOpts.Budget = remaining
		// Report member-total evaluations at rendezvous: the refinement
		// phase's counter does not know about the opener's spend.
		lsOpts.Sync = func(info coord.SyncInfo) coord.SyncDirective {
			info.Evaluations += dst.Evaluations
			info.Budget += dst.Evaluations
			return sync(info)
		}
		rm, rst, err := localsearch.Refine(ev, m, lsOpts)
		return memberResult{
			m: rm, val: rst.Makespan,
			evals: dst.Evaluations + rst.Evaluations,
			syncs: rst.Syncs, inj: rst.Injected, stopped: rst.Stopped, err: err,
		}

	case NSGA2:
		pop := ga.PopulationFor(budget)
		// The Budget gate, not Generations, must stop the run — including
		// after coordinator grants, which can multiply the initial
		// allocation (at most by the member count). The 8x headroom keeps
		// the generation cap unreachable for any realizable grant.
		gens := 8 * (budget/pop + 1)
		m, st := ga.MapWithEvaluator(ev, ga.Options{
			Population: pop, Generations: gens, Budget: budget,
			Seed: seed, Sync: sync, SyncEvery: syncEvery,
		})
		return memberResult{m: m, val: st.Makespan, evals: st.Evaluations, syncs: st.Syncs, inj: st.Injected, stopped: st.Stopped}
	}
	return memberResult{err: fmt.Errorf("portfolio: unknown member kind %d", int(kind))}
}
