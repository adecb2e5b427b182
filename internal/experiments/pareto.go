package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"time"

	"spmap/internal/gen"
	"spmap/internal/mappers/ga"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/pareto"
)

// The Pareto experiment extends the paper's single-objective evaluation
// to the time/energy trade-off its §II-A sketches: the weighted local-
// search sweep and the two-objective NSGA-II run at equal evaluation
// budgets on random series-parallel graphs, compared by normalized
// hypervolume against the pure-CPU reference point, per-objective
// improvement at the front's extremes, and front size.

// ParetoRow is one averaged data point of the Pareto comparison.
type ParetoRow struct {
	Tasks     int    `json:"tasks"`
	Algorithm string `json:"algorithm"`
	// Hypervolume is the front's average hypervolume normalized by the
	// baseline reference box (1 would dominate the whole box).
	Hypervolume float64 `json:"hypervolume" fmt:"%.6f"`
	// TimeImprovement and EnergyImprovement are the average relative
	// improvements of the front's fastest and most efficient points
	// over the pure-CPU baseline.
	TimeImprovement   float64 `json:"time_improvement" fmt:"%.6f"`
	EnergyImprovement float64 `json:"energy_improvement" fmt:"%.6f"`
	FrontSize         float64 `json:"front_size" fmt:"%.2f"`
	TimeMS            float64 `json:"time_ms" fmt:"%.4f"`
}

// paretoAlgo is one named multi-objective driver under test.
type paretoAlgo struct {
	name string
	run  func(ev *model.Evaluator, seed int64) (pareto.Front, int)
}

func paretoAlgos(cfg Config, eps float64) []paretoAlgo {
	budget := cfg.gaBudget()
	return []paretoAlgo{
		{"Sweep", func(ev *model.Evaluator, seed int64) (pareto.Front, int) {
			f, st, err := pareto.WeightedSweep(ev, pareto.SweepOptions{
				Seed: seed, Workers: cfg.Workers, Eps: eps,
				Budget: budget / len(pareto.DefaultWeights),
			})
			if err != nil {
				panic(err)
			}
			return f, st.Evaluations
		}},
		{"NSGA2", func(ev *model.Evaluator, seed int64) (pareto.Front, int) {
			f, st := ga.MapParetoWithEvaluator(ev, ga.ParetoOptions{
				Population: ga.DefaultPopulation, Generations: cfg.gaGens(),
				Seed: seed, Workers: cfg.Workers, Eps: eps,
			})
			return f, st.Evaluations
		}},
	}
}

// ParetoComparison sweeps graph sizes and returns one row per
// (size, algorithm).
func ParetoComparison(cfg Config) []ParetoRow {
	return ParetoComparisonEps(cfg, 0)
}

// ParetoComparisonEps is ParetoComparison with an explicit archive
// resolution.
func ParetoComparisonEps(cfg Config, eps float64) []ParetoRow {
	xs := []int{25, 50, 100}
	if cfg.Paper {
		xs = steps(25, 200, 25)
	}
	p := cfg.platform()
	algos := paretoAlgos(cfg, eps)
	rows := make([]ParetoRow, 0, len(xs)*len(algos))
	for _, n := range xs {
		acc := make([]ParetoRow, len(algos))
		count := cfg.graphs()
		for gi := 0; gi < count; gi++ {
			seed := cfg.Seed + int64(gi)*7919
			rng := rand.New(rand.NewSource(seed))
			g := gen.SeriesParallel(rng, n, gen.DefaultAttr())
			ev := model.NewEvaluator(g, p).WithSchedules(cfg.schedules(), seed+1)
			base := mapping.Baseline(g, p)
			baseMs, baseEn := ev.Makespan(base), ev.Energy(base)
			for ai, a := range algos {
				t0 := time.Now()
				front, _ := a.run(ev, seed)
				el := time.Since(t0)
				acc[ai].TimeMS += float64(el.Microseconds()) / 1000
				if len(front) == 0 || baseMs <= 0 || baseEn <= 0 {
					continue
				}
				acc[ai].Hypervolume += front.Hypervolume(baseMs, baseEn) / (baseMs * baseEn)
				if ms := front.MinMakespan().Makespan(); ms < baseMs {
					acc[ai].TimeImprovement += (baseMs - ms) / baseMs
				}
				if en := front.MinEnergy().Energy(); en < baseEn {
					acc[ai].EnergyImprovement += (baseEn - en) / baseEn
				}
				acc[ai].FrontSize += float64(len(front))
			}
		}
		for ai, a := range algos {
			c := float64(count)
			rows = append(rows, ParetoRow{
				Tasks: n, Algorithm: a.name,
				Hypervolume:       acc[ai].Hypervolume / c,
				TimeImprovement:   acc[ai].TimeImprovement / c,
				EnergyImprovement: acc[ai].EnergyImprovement / c,
				FrontSize:         acc[ai].FrontSize / c,
				TimeMS:            acc[ai].TimeMS / c,
			})
		}
	}
	return rows
}

// WriteCSVFront emits one two-objective Pareto front in long form (for
// the CLI's front export): point index, makespan, energy, device
// assignment (one "-"-joined device index per task, unambiguous for any
// device count).
func WriteCSVFront(w io.Writer, f pareto.Front) error {
	return WriteCSVFrontObjs(w, f, []string{"makespan", "energy"})
}

// WriteCSVFrontObjs is WriteCSVFront for a front over an arbitrary
// objective vector; names label the objective columns (one per
// dimension of the front's points, in vector order).
func WriteCSVFrontObjs(w io.Writer, f pareto.Front, names []string) error {
	cw := csv.NewWriter(w)
	header := append(append([]string{"point"}, names...), "mapping")
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, pt := range f {
		ms := ""
		for vi, d := range pt.Mapping {
			if vi > 0 {
				ms += "-"
			}
			ms += fmt.Sprint(d)
		}
		rec := make([]string, 0, len(pt.Vec)+2)
		rec = append(rec, fmt.Sprint(i))
		for _, v := range pt.Vec {
			rec = append(rec, fmt.Sprintf("%.9g", v))
		}
		rec = append(rec, ms)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
