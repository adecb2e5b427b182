package spmap_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spmap"
	"spmap/internal/mappers/ga"
	"spmap/internal/pareto"
)

// TestTinyBudgetsNeverOverspend: every budgeted driver either rejects a
// budget below its minimum with an error naming that minimum, or spends
// at most the budget. The rows cover both MapPareto drivers, the robust
// driver, and the single-objective GA with Budget below its Population
// (which shrinks the population instead of failing).
func TestTinyBudgetsNeverOverspend(t *testing.T) {
	g := spmap.RandomSeriesParallel(rand.New(rand.NewSource(3)), 20)
	ev := spmap.NewEvaluator(g, spmap.ReferencePlatform()).WithSchedules(4, 1)
	mapPareto := func(alg spmap.ParetoAlgorithm) func(int) (int, error) {
		return func(budget int) (int, error) {
			_, st, err := spmap.MapParetoWithEvaluator(ev, spmap.ParetoOptions{Algorithm: alg, Budget: budget, Seed: 1})
			return st.Evaluations, err
		}
	}
	genetic := func(pop int) func(int) (int, error) {
		return func(budget int) (int, error) {
			_, st := ga.MapWithEvaluator(ev, ga.Options{Population: pop, Generations: 50, Budget: budget, Seed: 1})
			return st.Evaluations, nil
		}
	}
	drivers := []struct {
		name  string
		least int // smallest budget the driver accepts
		run   func(budget int) (evaluations int, err error)
	}{
		{"pareto-nsga2", 8, mapPareto(spmap.ParetoNSGA2)},
		{"pareto-sweep", len(pareto.DefaultWeights), mapPareto(spmap.ParetoSweep)},
		{"robust", 8, func(budget int) (int, error) {
			_, st, err := spmap.MapRobustWithEvaluator(ev, spmap.RobustOptions{
				Noise:   spmap.NoiseModel{Kind: spmap.NoiseLognormal, DeviceSigma: 0.3, Seed: 1},
				Samples: 2, Budget: budget, Seed: 1,
			})
			return st.Evaluations, err
		}},
		{"ga-population-20", 1, genetic(20)},
		{"ga-population-6", 1, genetic(6)},
	}
	for _, d := range drivers {
		for budget := 1; budget <= 20; budget++ {
			evals, err := d.run(budget)
			if err != nil {
				if budget >= d.least || !strings.Contains(err.Error(), fmt.Sprintf("at least %d", d.least)) {
					t.Errorf("%s budget %d: unexpected error %v", d.name, budget, err)
				}
				continue
			}
			if budget < d.least {
				t.Errorf("%s budget %d: accepted a budget below the minimum %d", d.name, budget, d.least)
			}
			if evals > budget {
				t.Errorf("%s budget %d: spent %d evaluations", d.name, budget, evals)
			}
		}
	}
}
