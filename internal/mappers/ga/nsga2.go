package ga

import (
	"cmp"

	"spmap/internal/eval"
	"spmap/internal/model"
	"spmap/internal/pareto"
)

// ParetoOptions configure MapParetoWithEvaluator; zero values select
// the paper's GA parameters (population 100, 500 generations).
type ParetoOptions struct {
	// Population size (default DefaultPopulation).
	Population int
	// Generations to run (default 500).
	Generations int
	// Seed drives the deterministic RNG.
	Seed int64
	// Workers bounds the evaluation engine's worker pool (0 selects
	// GOMAXPROCS). The front is identical for any value.
	Workers int
	// Eps is the Pareto archive's ε-grid resolution (0 = exact front).
	Eps float64
	// Objectives selects the minimized objective vector (nil selects the
	// classic [makespan, energy] pair, evaluated through one fused batch
	// pass). Further objectives, such as eval.NewRobustObjective, extend
	// every individual's vector, the non-dominated sort, the crowding
	// distance and the archived front to d dimensions.
	Objectives []eval.Objective
}

// ParetoStats report MapParetoWithEvaluator effort and outcome.
type ParetoStats struct {
	Generations int
	Evaluations int
	// FrontSize is the returned front's size; ArchiveSeen counts the
	// feasible evaluated points offered to the archive.
	FrontSize   int
	ArchiveSeen int
	// BestMakespan and BestEnergy are the front's per-objective minima.
	BestMakespan float64
	BestEnergy   float64
}

// byRankCrowding orders individuals by ascending non-domination rank,
// then descending crowding distance.
func byRankCrowding(a, b individual) int {
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	return cmp.Compare(b.crowding, a.crowding)
}

// MapParetoWithEvaluator runs NSGA-II over ev's instance and returns
// the ε-dominance front of every evaluated individual.
func MapParetoWithEvaluator(ev *model.Evaluator, opt ParetoOptions) (pareto.Front, ParetoStats) {
	pop, gens := defaults(opt.Population, opt.Generations)
	objs := opt.Objectives
	if len(objs) == 0 {
		objs = []eval.Objective{eval.MakespanObjective(), eval.EnergyObjective()}
	}
	e := newEvolution(ev, pop, opt.Workers, opt.Seed, objs)
	e.archive = pareto.NewArchive(opt.Eps)
	inds := e.initial()
	rankAndCrowd(inds)
	for range gens {
		// Environmental selection over parents + offspring: fill by
		// non-domination rank; truncate the cut front by crowding.
		inds = e.generation(inds, byRankCrowding, rankAndCrowd)
	}

	front := e.archive.Front()
	stats := ParetoStats{
		Generations: gens, Evaluations: e.evals,
		FrontSize: len(front), ArchiveSeen: e.archive.Seen(),
	}
	if len(front) > 0 {
		stats.BestMakespan = front.MinMakespan().Makespan()
		stats.BestEnergy = front.MinEnergy().Energy()
	}
	return front, stats
}

// rankAndCrowd assigns every individual its non-domination rank and
// crowding distance over the full objective vector.
func rankAndCrowd(inds []individual) {
	dim := 0
	if len(inds) > 0 {
		dim = len(inds[0].vec)
	}
	cols := make([][]float64, dim)
	for j := range cols {
		cols[j] = make([]float64, len(inds))
		for i := range inds {
			cols[j][i] = inds[i].vec[j]
		}
	}
	rank := pareto.NonDominatedRanksVec(cols)
	maxRank := 0
	for i := range inds {
		inds[i].rank = rank[i]
		if rank[i] > maxRank {
			maxRank = rank[i]
		}
	}
	fronts := make([][]int, maxRank+1)
	for i, r := range rank {
		fronts[r] = append(fronts[r], i) // ascending index order per front
	}
	for _, front := range fronts {
		d := pareto.CrowdingDistanceVec(cols, front)
		for k, i := range front {
			inds[i].crowding = d[k]
		}
	}
}
