// Package experiments reproduces the paper's evaluation (§IV): one
// generator per figure and table, all running on the common model-based
// evaluation protocol (relative improvement over the pure-CPU mapping,
// makespans as minima over a breadth-first and k random schedules,
// averages over a pool of random graphs per data point).
package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mappers/decomp"
	"spmap/internal/mappers/ga"
	"spmap/internal/mappers/heft"
	"spmap/internal/mapping"
	"spmap/internal/milp"
	"spmap/internal/model"
	"spmap/internal/platform"
	"spmap/internal/wf"
)

// Config controls the evaluation scale. Zero values select the quick
// profile; Paper switches every knob to the paper's full protocol.
type Config struct {
	// Paper selects the full paper-scale sweep (30 graphs per point, 100
	// random schedules, 5..200 step 5, 500 GA generations, 5 min MILP
	// budget). The quick profile keeps every series' shape at a fraction
	// of the runtime.
	Paper bool
	// GraphsPerPoint overrides the number of random graphs per data point.
	GraphsPerPoint int
	// Schedules overrides the number of random schedules in the cost
	// function.
	Schedules int
	// Seed is the base RNG seed.
	Seed int64
	// GAGenerations overrides the NSGA-II generation count.
	GAGenerations int
	// MILPTimeLimit overrides the per-instance MILP budget.
	MILPTimeLimit time.Duration
	// Platform overrides the evaluation platform (default Reference()).
	Platform *platform.Platform
	// Workers bounds the evaluation engine's worker pool used by the
	// decomposition mappers and the GA (0 selects GOMAXPROCS, 1 forces
	// serial — useful for like-for-like timing comparisons). Results are
	// identical for any value.
	Workers int
}

func (c Config) graphs() int {
	if c.GraphsPerPoint > 0 {
		return c.GraphsPerPoint
	}
	if c.Paper {
		return 30
	}
	return 8
}

func (c Config) schedules() int {
	if c.Schedules > 0 {
		return c.Schedules
	}
	if c.Paper {
		return 100
	}
	return 20
}

func (c Config) gaGens() int {
	if c.GAGenerations > 0 {
		return c.GAGenerations
	}
	if c.Paper {
		return 500
	}
	return 100
}

func (c Config) milpBudget() time.Duration {
	if c.MILPTimeLimit > 0 {
		return c.MILPTimeLimit
	}
	if c.Paper {
		return 5 * time.Minute
	}
	return 3 * time.Second
}

func (c Config) platform() *platform.Platform {
	if c.Platform != nil {
		return c.Platform
	}
	return platform.Reference()
}

// Algorithm is a named mapper run under the common protocol.
type Algorithm struct {
	Name string
	// Run maps the evaluator's graph; seed varies per graph instance.
	Run func(ev *model.Evaluator, seed int64) mapping.Mapping
	// MaxTasks skips the algorithm on larger graphs (0 = unlimited); the
	// paper restricts ZhouLiu to 20 tasks this way.
	MaxTasks int
}

// Point is one averaged data point of a series.
type Point struct {
	X           float64
	Improvement float64 // average positive relative improvement
	TimeMS      float64 // average mapper execution time in milliseconds
	Found       float64 // fraction of graphs with a strict improvement
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Table is a reproduced figure/table: a set of series over a common
// x-axis.
type Table struct {
	ID     string
	Title  string
	XLabel string
	Series []*Series
}

// TableRow is one point of a Table in long form: one series at one x.
type TableRow struct {
	Experiment  string  `json:"experiment"`
	Series      string  `json:"series"`
	X           float64 `json:"x"`
	Improvement float64 `json:"improvement" fmt:"%.6f"`
	TimeMS      float64 `json:"time_ms" fmt:"%.4f"`
	Found       float64 `json:"found" fmt:"%.3f"`
}

// Report returns t in long form, x ascending and the series of one x
// on adjacent rows in series order; the title names the x axis.
func (t *Table) Report() Report {
	var xs []float64
	for _, s := range t.Series {
		for _, p := range s.Points {
			xs = append(xs, p.X)
		}
	}
	slices.Sort(xs)
	var rows []TableRow
	for _, x := range slices.Compact(xs) {
		for _, s := range t.Series {
			for _, p := range s.Points {
				if p.X == x {
					rows = append(rows, TableRow{t.ID, s.Name, x, p.Improvement, p.TimeMS, p.Found})
					break
				}
			}
		}
	}
	return Report{ID: t.ID, Title: t.Title + "; x = " + t.XLabel, Rows: rows}
}

// runPoint evaluates every algorithm on `count` graphs produced by mk and
// returns one Point per algorithm.
func runPoint(cfg Config, x float64, algos []Algorithm, mk func(rng *rand.Rand) *graph.DAG) []Point {
	p := cfg.platform()
	pts := make([]Point, len(algos))
	count := cfg.graphs()
	for gi := 0; gi < count; gi++ {
		seed := cfg.Seed + int64(gi)*7919
		rng := rand.New(rand.NewSource(seed))
		g := mk(rng)
		ev := model.NewEvaluator(g, p).WithSchedules(cfg.schedules(), seed+1)
		base := ev.Makespan(mapping.Baseline(g, p))
		for ai, a := range algos {
			if a.MaxTasks > 0 && g.NumTasks() > a.MaxTasks {
				continue
			}
			t0 := time.Now()
			m := a.Run(ev, seed)
			el := time.Since(t0)
			ms := ev.Makespan(m)
			imp := 0.0
			if ms < base && base > 0 {
				imp = (base - ms) / base
			}
			pts[ai].Improvement += imp
			pts[ai].TimeMS += float64(el.Microseconds()) / 1000
			if imp > 0 {
				pts[ai].Found++
			}
		}
	}
	for ai := range pts {
		pts[ai].X = x
		pts[ai].Improvement /= float64(count)
		pts[ai].TimeMS /= float64(count)
		pts[ai].Found /= float64(count)
	}
	return pts
}

// sweep runs algorithms across xs, generating graphs via mk(x, rng).
func sweep(cfg Config, id, title, xlabel string, xs []int, algos []Algorithm,
	mk func(x int, rng *rand.Rand) *graph.DAG) *Table {
	t := &Table{ID: id, Title: title, XLabel: xlabel}
	for _, a := range algos {
		t.Series = append(t.Series, &Series{Name: a.Name})
	}
	for _, x := range xs {
		pts := runPoint(cfg, float64(x), algos, func(rng *rand.Rand) *graph.DAG { return mk(x, rng) })
		for ai := range algos {
			if algos[ai].MaxTasks > 0 && x > algos[ai].MaxTasks {
				continue
			}
			t.Series[ai].Points = append(t.Series[ai].Points, pts[ai])
		}
	}
	return t
}

// Standard algorithm constructors.

func algoDecomp(cfg Config, name string, strat decomp.Strategy, h decomp.Heuristic) Algorithm {
	return Algorithm{Name: name, Run: func(ev *model.Evaluator, seed int64) mapping.Mapping {
		m, _, err := decomp.MapWithEvaluator(ev, decomp.Options{
			Strategy: strat, Heuristic: h, Workers: cfg.Workers,
		})
		if err != nil {
			panic(err)
		}
		return m
	}}
}

func algoHEFT(v heft.Variant) Algorithm {
	return Algorithm{Name: v.String(), Run: func(ev *model.Evaluator, seed int64) mapping.Mapping {
		return heft.MapWithEvaluator(ev, v)
	}}
}

func algoGA(cfg Config) Algorithm {
	return Algorithm{Name: "NSGAII", Run: func(ev *model.Evaluator, seed int64) mapping.Mapping {
		m, _ := ga.MapWithEvaluator(ev, ga.Options{
			Generations: cfg.gaGens(), Seed: seed, Workers: cfg.Workers,
		})
		return m
	}}
}

func algoMILP(name string, f milp.Formulation, cfg Config, maxTasks int) Algorithm {
	return Algorithm{Name: name, MaxTasks: maxTasks,
		Run: func(ev *model.Evaluator, seed int64) mapping.Mapping {
			return milp.MapWithEvaluator(ev, f, milp.MapOptions{TimeLimit: cfg.milpBudget()}).Mapping
		}}
}

// Fig3 compares the basic decomposition mappers with the three MILPs on
// random series-parallel graphs (paper Fig. 3: 5..30 tasks; ZhouLiu only
// up to 20 due to its execution time).
func Fig3(cfg Config) *Table {
	xs := []int{5, 10, 15, 20, 25, 30}
	zhouMax := 20
	if !cfg.Paper {
		zhouMax = 10 // the pure-Go B&B is far slower than Gurobi
	}
	algos := []Algorithm{
		algoMILP("WGDPTime", milp.WGDPTime, cfg, 30),
		algoMILP("WGDPDevice", milp.WGDPDevice, cfg, 0),
		algoMILP("ZhouLiu", milp.ZhouLiu, cfg, zhouMax),
		algoDecomp(cfg, "SingleNode", decomp.SingleNode, decomp.Basic),
		algoDecomp(cfg, "SeriesParallel", decomp.SeriesParallel, decomp.Basic),
	}
	return sweep(cfg, "fig3", "Decomposition mapping vs. MILPs (random SP graphs)", "tasks",
		xs, algos, func(x int, rng *rand.Rand) *graph.DAG {
			return gen.SeriesParallel(rng, x, gen.DefaultAttr())
		})
}

// Fig4 compares HEFT/PEFT with the decomposition mappers (basic and
// FirstFit) on random series-parallel graphs (paper Fig. 4: 5..200 tasks).
func Fig4(cfg Config) *Table {
	xs := []int{5, 25, 50, 75, 100, 150, 200}
	if cfg.Paper {
		xs = steps(5, 200, 5)
	}
	algos := []Algorithm{
		algoHEFT(heft.HEFT),
		algoHEFT(heft.PEFT),
		algoDecomp(cfg, "SingleNode", decomp.SingleNode, decomp.Basic),
		algoDecomp(cfg, "SeriesParallel", decomp.SeriesParallel, decomp.Basic),
		algoDecomp(cfg, "SNFirstFit", decomp.SingleNode, decomp.FirstFit),
		algoDecomp(cfg, "SPFirstFit", decomp.SeriesParallel, decomp.FirstFit),
	}
	return sweep(cfg, "fig4", "List scheduling vs. decomposition mapping (random SP graphs)", "tasks",
		xs, algos, func(x int, rng *rand.Rand) *graph.DAG {
			return gen.SeriesParallel(rng, x, gen.DefaultAttr())
		})
}

// Fig5 compares the FirstFit decomposition mappers with NSGA-II (paper
// Fig. 5: 5..100 tasks).
func Fig5(cfg Config) *Table {
	xs := []int{5, 25, 50, 75, 100}
	if cfg.Paper {
		xs = steps(5, 100, 5)
	}
	algos := []Algorithm{
		algoDecomp(cfg, "SNFirstFit", decomp.SingleNode, decomp.FirstFit),
		algoDecomp(cfg, "SPFirstFit", decomp.SeriesParallel, decomp.FirstFit),
		algoGA(cfg),
	}
	return sweep(cfg, "fig5", "Genetic algorithm vs. FirstFit decomposition (random SP graphs)", "tasks",
		xs, algos, func(x int, rng *rand.Rand) *graph.DAG {
			return gen.SeriesParallel(rng, x, gen.DefaultAttr())
		})
}

// Fig6 sweeps the NSGA-II generation budget on fixed-size graphs (paper
// Fig. 6: 50..500 generations, 200-node graphs) with the FirstFit
// decomposition mappers as horizontal references.
func Fig6(cfg Config) *Table {
	n := 100
	if cfg.Paper {
		n = 200
	}
	xs := []int{50, 100, 150, 200, 300, 400, 500}
	if cfg.Paper {
		xs = steps(50, 500, 50)
	}
	mkGraph := func(rng *rand.Rand) *graph.DAG {
		return gen.SeriesParallel(rng, n, gen.DefaultAttr())
	}
	algos := []Algorithm{
		algoDecomp(cfg, "SNFirstFit", decomp.SingleNode, decomp.FirstFit),
		algoDecomp(cfg, "SPFirstFit", decomp.SeriesParallel, decomp.FirstFit),
	}
	t := &Table{ID: "fig6", Title: fmt.Sprintf("NSGA-II generations tradeoff (%d-node random SP graphs)", n), XLabel: "generations"}
	ref := make([]*Series, len(algos))
	for i, a := range algos {
		ref[i] = &Series{Name: a.Name}
	}
	gaSeries := &Series{Name: "NSGAII"}
	for _, gens := range xs {
		gcfg := cfg
		gcfg.GAGenerations = gens
		all := append(append([]Algorithm{}, algos...), algoGA(gcfg))
		pts := runPoint(cfg, float64(gens), all, mkGraph)
		for i := range algos {
			ref[i].Points = append(ref[i].Points, pts[i])
		}
		gaSeries.Points = append(gaSeries.Points, pts[len(algos)])
	}
	t.Series = append(ref, gaSeries)
	return t
}

// Fig7 evaluates robustness to conflicting edges: 100-node almost
// series-parallel graphs with a growing number of random extra edges
// (paper Fig. 7: 0..200 edges).
func Fig7(cfg Config) *Table {
	xs := []int{0, 25, 50, 100, 150, 200}
	if cfg.Paper {
		xs = steps(5, 200, 5)
	}
	const n = 100
	algos := []Algorithm{
		algoHEFT(heft.HEFT),
		algoHEFT(heft.PEFT),
		algoGA(cfg),
		algoDecomp(cfg, "SNFirstFit", decomp.SingleNode, decomp.FirstFit),
		algoDecomp(cfg, "SPFirstFit", decomp.SeriesParallel, decomp.FirstFit),
	}
	return sweep(cfg, "fig7", "Almost series-parallel graphs (100 nodes, extra conflicting edges)", "extra edges",
		xs, algos, func(x int, rng *rand.Rand) *graph.DAG {
			return gen.AlmostSeriesParallel(rng, n, x, gen.DefaultAttr())
		})
}

// WFRow is one (workflow set, algorithm) row of the Table I
// reproduction.
type WFRow struct {
	Set         string  `json:"set"`
	Tasks       int     `json:"tasks"` // tasks of the set's largest instance
	Algorithm   string  `json:"algorithm"`
	Improvement float64 `json:"improvement" fmt:"%.6f"`
	TotalTimeMS float64 `json:"total_time_ms" fmt:"%.4f"`
}

// Table1 reproduces the real-world benchmark table (paper Table I):
// average positive relative improvement and summed execution time per
// algorithm over each workflow family's instances, one row per (family,
// algorithm) in family and then algorithm order. bwa and seismology are
// included to verify that (as in the paper) no algorithm accelerates
// them; the paper omits such rows from its table.
func Table1(cfg Config) []WFRow {
	perFamily := 2
	if cfg.Paper {
		perFamily = 4
	}
	p := cfg.platform()
	algos := []Algorithm{
		algoHEFT(heft.HEFT),
		algoHEFT(heft.PEFT),
		algoGA(cfg),
		algoDecomp(cfg, "SNFirstFit", decomp.SingleNode, decomp.FirstFit),
		algoDecomp(cfg, "SPFirstFit", decomp.SeriesParallel, decomp.FirstFit),
	}
	var rows []WFRow
	for _, fam := range wf.Families() {
		famRows := make([]WFRow, len(algos))
		tasks := 0
		for i := 0; i < perFamily; i++ {
			seed := cfg.Seed + int64(int(fam)*1000+i)
			rng := rand.New(rand.NewSource(seed))
			g := wf.Generate(fam, 1+i, rng)
			tasks = max(tasks, g.NumTasks())
			ev := model.NewEvaluator(g, p).WithSchedules(cfg.schedules(), seed+1)
			base := ev.Makespan(mapping.Baseline(g, p))
			for ai, a := range algos {
				t0 := time.Now()
				m := a.Run(ev, seed)
				el := time.Since(t0)
				ms := ev.Makespan(m)
				if ms < base && base > 0 {
					famRows[ai].Improvement += (base - ms) / base
				}
				famRows[ai].TotalTimeMS += float64(el.Microseconds()) / 1000
			}
		}
		for ai, a := range algos {
			famRows[ai].Set, famRows[ai].Tasks, famRows[ai].Algorithm = fam.String(), tasks, a.Name
			famRows[ai].Improvement /= float64(perFamily)
		}
		rows = append(rows, famRows...)
	}
	return rows
}

func steps(from, to, by int) []int {
	var out []int
	for x := from; x <= to; x += by {
		out = append(out, x)
	}
	return out
}
