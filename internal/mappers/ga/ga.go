// Package ga implements the NSGA-II genetic algorithm the paper uses as
// its metaheuristic baseline (§IV): a topologically sorted genome with
// one gene (device) per task, binary tournaments, single-point crossover
// with 90 % crossover rate, mutation rate 1/n, a repair function
// enforcing feasible mappings, population size 100 and (by default) 500
// generations.
//
// One evolution loop serves two drivers that differ only in how two
// individuals compare and how survivors are ordered. MapWithEvaluator is
// the single-objective baseline: with one objective, NSGA-II's
// non-dominated sorting degenerates to elitist (mu+lambda) selection on
// the makespan. MapParetoWithEvaluator is the full algorithm over an
// objective vector: fast non-dominated sorting, crowding distance, and
// tournaments on (rank, crowding), with every evaluated individual
// offered to an ε-dominance Pareto archive.
//
// Determinism contract: for a fixed seed the result and every Stats
// counter are identical across runs and across any Workers value —
// random draws happen on the calling goroutine in a fixed order,
// populations are evaluated as index-aligned batches, and survivors are
// ordered by a stable sort.
package ga

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"spmap/internal/coord"
	"spmap/internal/eval"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/pareto"
	"spmap/internal/platform"
)

// DefaultPopulation is the paper's population size, used when
// Options.Population is zero. Equal-budget comparisons against other
// metaheuristics derive the GA's evaluation budget from it:
// DefaultPopulation x (generations + 1).
const DefaultPopulation = 100

// MinPopulation is the smallest population PopulationFor returns.
const MinPopulation = 4

const (
	defaultGenerations = 500
	// crossoverRate is the probability of single-point crossover on a
	// selected parent pair; the per-gene mutation rate is 1/n.
	crossoverRate = 0.9
)

// PopulationFor derives the population an evaluation budget carries:
// the paper's DefaultPopulation once the budget covers two populations,
// budget/8 (at least MinPopulation) below.
func PopulationFor(budget int) int {
	if budget >= 2*DefaultPopulation {
		return DefaultPopulation
	}
	return max(budget/8, MinPopulation)
}

// individual is one population member: a genome, its objective vector
// (the makespan alone in the single-objective run) and NSGA-II's
// selection keys.
type individual struct {
	genes    mapping.Mapping
	vec      []float64
	rank     int
	crowding float64
}

// evolution is the state one GA run shares between its drivers.
type evolution struct {
	g     *graph.DAG
	p     *platform.Platform
	pop   int
	rng   *rand.Rand
	order []graph.NodeID // genome order: topological
	eng   *eval.Engine
	objs  []eval.Objective
	batch []eval.Op
	evals int
	// archive, if non-nil, is offered every evaluated individual.
	archive *pareto.Archive
}

// newEvolution prepares a run of pop individuals scored under objs.
func newEvolution(ev *model.Evaluator, pop, workers int, seed int64, objs []eval.Objective) *evolution {
	// Genes are laid out in topological order so that single-point
	// crossover exchanges a precedence-consistent prefix.
	order, err := ev.G.TopoSort()
	if err != nil {
		panic(err) // graphs are validated before mapping
	}
	eng := ev.Engine()
	if workers > 0 {
		eng = eng.WithWorkers(workers)
	}
	return &evolution{
		g: ev.G, p: ev.P, pop: pop, rng: rand.New(rand.NewSource(seed)),
		order: order, eng: eng, objs: objs, batch: make([]eval.Op, 0, pop),
	}
}

// defaults resolves zero population and generation counts.
func defaults(pop, gens int) (int, int) {
	if pop <= 0 {
		pop = DefaultPopulation
	}
	if gens <= 0 {
		gens = defaultGenerations
	}
	return pop, gens
}

// initial draws and evaluates the initial population: the pure-CPU
// baseline first, then uniform random mappings.
func (e *evolution) initial() []individual {
	inds := make([]individual, e.pop, 2*e.pop)
	inds[0].genes = mapping.Baseline(e.g, e.p)
	for i := 1; i < e.pop; i++ {
		genes := make(mapping.Mapping, e.g.NumTasks())
		for v := range genes {
			genes[v] = e.rng.Intn(e.p.NumDevices())
		}
		inds[i].genes = genes
	}
	e.evaluate(inds)
	return inds
}

// evaluate repairs every individual and scores the whole population as
// one engine batch (fanned out over the worker pool). Evaluation draws
// no randomness, so batching cannot perturb the RNG stream.
func (e *evolution) evaluate(inds []individual) {
	e.batch = e.batch[:0]
	for i := range inds {
		inds[i].genes.Repair(e.g, e.p)
		e.batch = append(e.batch, eval.Op{Base: inds[i].genes})
	}
	cols := e.eng.EvaluateBatchVec(e.batch, e.objs, math.Inf(1))
	d := len(e.objs)
	vecs := make([]float64, d*len(inds))
	for i := range inds {
		vec := vecs[i*d : (i+1)*d : (i+1)*d]
		for j := range cols {
			vec[j] = cols[j][i]
		}
		inds[i].vec = vec
		if e.archive != nil {
			e.archive.Add(pareto.NewPoint(vec, inds[i].genes))
		}
	}
	e.evals += len(inds)
}

// generation evolves the population by one generation: pop offspring
// bred by binary tournaments under compare (ties keep the first-drawn
// competitor), single-point crossover along the genome and per-gene
// mutation, evaluated as one batch; the survivors are the first pop of
// parents + offspring in the stable order of compare, after rank (if
// non-nil) has assigned the selection keys.
func (e *evolution) generation(inds []individual, compare func(a, b individual) int, rank func([]individual)) []individual {
	n := e.g.NumTasks()
	mrate := 1 / float64(n)
	tournament := func() *individual {
		a, b := e.rng.Intn(e.pop), e.rng.Intn(e.pop)
		if compare(inds[b], inds[a]) < 0 {
			return &inds[b]
		}
		return &inds[a]
	}
	offspring := make([]individual, 0, e.pop)
	for len(offspring) < e.pop {
		p1, p2 := tournament(), tournament()
		c1, c2 := p1.genes.Clone(), p2.genes.Clone()
		if e.rng.Float64() < crossoverRate && n > 1 {
			// The children keep their parents' genes up to the cut and
			// swap the rest.
			cut := 1 + e.rng.Intn(n-1)
			for _, v := range e.order[cut:] {
				c1[v], c2[v] = p2.genes[v], p1.genes[v]
			}
		}
		for _, c := range []mapping.Mapping{c1, c2} {
			for v := range c {
				if e.rng.Float64() < mrate {
					c[v] = e.rng.Intn(e.p.NumDevices())
				}
			}
			offspring = append(offspring, individual{genes: c})
			if len(offspring) == e.pop {
				break
			}
		}
	}
	e.evaluate(offspring)
	inds = append(inds[:e.pop], offspring...)
	if rank != nil {
		rank(inds)
	}
	slices.SortStableFunc(inds, compare)
	return inds[:e.pop]
}

// Options configure the single-objective GA; zero values select the
// paper's parameters.
type Options struct {
	// Population size (default DefaultPopulation).
	Population int
	// Generations to run (default 500).
	Generations int
	// Seed for the deterministic RNG.
	Seed int64
	// Workers bounds the evaluation engine's worker pool (0 selects
	// GOMAXPROCS, 1 forces serial). The evolution is identical for any
	// value.
	Workers int
	// Budget caps engine evaluations (0 = uncapped): the initial
	// population is shrunk to at most Budget individuals and the GA
	// stops before any generation whose evaluation would exceed the cap,
	// so it never overshoots. Generations remains the outer limit.
	Budget int
	// Sync, if non-nil, is invoked at generation boundaries whenever at
	// least SyncEvery evaluations accrued since the last call — the
	// portfolio runner's coordination hook. The directive may adjust
	// Budget, stop the evolution, or inject an elite: an elite whose
	// EliteValue improves on the current worst individual replaces it
	// without spending an evaluation (EliteValue must be exact under the
	// same engine). SyncEvery <= 0 disables the hook.
	Sync      coord.SyncFunc
	SyncEvery int
}

// Stats reports GA effort and convergence.
type Stats struct {
	// Generations counts generations actually evolved (may stop short of
	// Options.Generations under a Budget or a Sync stop directive).
	Generations int
	Evaluations int
	// Syncs counts Sync-hook invocations; Injected counts elites adopted
	// into the population (both 0 without a hook). Stopped records that a
	// Stop directive ended the evolution before budget/generations ran
	// out (the portfolio's gap-adaptive early termination).
	Syncs    int
	Injected int
	Stopped  bool
	// BestPerGeneration records the best makespan after each generation
	// (useful for the saturation analysis of paper Fig. 6).
	BestPerGeneration []float64
	Makespan          float64
}

// byMakespan orders individuals by ascending makespan.
func byMakespan(a, b individual) int { return cmp.Compare(a.vec[0], b.vec[0]) }

// Map runs the GA and returns the best mapping found.
func Map(g *graph.DAG, p *platform.Platform, opt Options) (mapping.Mapping, Stats) {
	return MapWithEvaluator(model.NewEvaluator(g, p), opt)
}

// MapWithEvaluator is Map with a shared evaluator.
func MapWithEvaluator(ev *model.Evaluator, opt Options) (mapping.Mapping, Stats) {
	pop, gens := defaults(opt.Population, opt.Generations)
	if opt.Budget > 0 && pop > opt.Budget {
		// Even the initial population must respect the evaluation cap.
		pop = opt.Budget
	}
	e := newEvolution(ev, pop, opt.Workers, opt.Seed, []eval.Objective{eval.MakespanObjective()})
	inds := e.initial()

	var stats Stats
	budget := opt.Budget
	lastSync := 0
	for gen := 0; gen < gens; gen++ {
		// The budget gate never overshoots: a generation costs exactly pop
		// evaluations, so stop before one that would exceed the cap.
		if budget > 0 && e.evals+pop > budget {
			break
		}
		inds = e.generation(inds, byMakespan, nil)
		stats.BestPerGeneration = append(stats.BestPerGeneration, inds[0].vec[0])
		stats.Generations = gen + 1

		// Coordination rendezvous at the generation boundary (portfolio
		// racing).
		if opt.Sync != nil && opt.SyncEvery > 0 && e.evals-lastSync >= opt.SyncEvery {
			lastSync = e.evals
			stats.Syncs++
			d := opt.Sync(coord.SyncInfo{
				Evaluations: e.evals,
				Budget:      budget,
				BestValue:   inds[0].vec[0],
				Best:        inds[0].genes.Clone(),
			})
			budget += d.BudgetDelta
			// Elite adoption is free (no evaluation): the coordinator
			// forwards the exact makespan another member computed on the
			// shared engine; the elite displaces the first worst survivor
			// when it improves on it.
			if d.Elite != nil && len(d.Elite) == ev.G.NumTasks() {
				wi := 0
				for i := range inds {
					if inds[i].vec[0] > inds[wi].vec[0] {
						wi = i
					}
				}
				if d.EliteValue < inds[wi].vec[0] {
					inds[wi] = individual{genes: d.Elite.Clone(), vec: []float64{d.EliteValue}}
					stats.Injected++
				}
			}
			if d.Stop {
				stats.Stopped = true
				break
			}
		}
	}
	stats.Evaluations = e.evals
	// The first minimum of a scan: a budget stop before the first
	// generation leaves the population unsorted.
	best := 0
	for i := range inds {
		if inds[i].vec[0] < inds[best].vec[0] {
			best = i
		}
	}
	stats.Makespan = inds[best].vec[0]
	return inds[best].genes, stats
}
