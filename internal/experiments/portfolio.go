package experiments

import (
	"math/rand"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mappers/decomp"
	"spmap/internal/mappers/heft"
	"spmap/internal/mappers/localsearch"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/portfolio"
)

// The portfolio experiment extends the local-search comparison (PR 2)
// with the racing combined mapper: the full portfolio runs at exactly
// the GA's evaluation budget against each single member granted the
// same total budget — the equal-budget portfolio-vs-best-single
// comparison.

// algoPortfolio races the full portfolio at the equal-budget anchor.
func algoPortfolio(cfg Config) Algorithm {
	return Algorithm{Name: "Portfolio", Run: func(ev *model.Evaluator, seed int64) mapping.Mapping {
		m, _, err := portfolio.MapWithEvaluator(ev, portfolio.Options{
			Seed: seed, Workers: cfg.Workers, Budget: cfg.gaBudget(),
		})
		if err != nil {
			panic(err)
		}
		return m
	}}
}

// algoSeedRefine refines a list-scheduling seed mapping with annealing
// at the full equal-budget anchor (the strongest single portfolio
// members, run standalone).
func algoSeedRefine(cfg Config, name string, v heft.Variant) Algorithm {
	return Algorithm{Name: name, Run: func(ev *model.Evaluator, seed int64) mapping.Mapping {
		m, _, err := localsearch.Refine(ev, heft.MapWithEvaluator(ev, v), localsearch.Options{
			Seed: seed, Workers: cfg.Workers, Budget: cfg.gaBudget(),
		})
		if err != nil {
			panic(err)
		}
		return m
	}}
}

// PortfolioComparison compares the racing portfolio with every single
// member at equal total evaluation budgets on random series-parallel
// graphs. The portfolio's improvement should match the per-instance
// best single member (it races them all and cross-pollinates), at a
// fraction of the summed wall-clock thanks to the shared evaluation
// cache.
func PortfolioComparison(cfg Config) *Table {
	xs := []int{25, 50, 100}
	if cfg.Paper {
		xs = steps(25, 200, 25)
	}
	algos := []Algorithm{
		algoPortfolio(cfg),
		algoGA(cfg),
		algoLocalSearch(cfg, "Anneal", localsearch.Anneal),
		algoLocalSearch(cfg, "HillClimb", localsearch.HillClimb),
		algoDecomp(cfg, "SPFirstFit", decomp.SeriesParallel, decomp.FirstFit),
		algoDecompRefine(cfg),
		algoSeedRefine(cfg, "HEFT+Refine", heft.HEFT),
		algoSeedRefine(cfg, "PEFT+Refine", heft.PEFT),
	}
	return sweep(cfg, "portfolio", "Portfolio racing vs. single mappers (equal evaluation budgets, random SP graphs)", "tasks",
		xs, algos, func(x int, rng *rand.Rand) *graph.DAG {
			return gen.SeriesParallel(rng, x, gen.DefaultAttr())
		})
}
