package experiments

import (
	"fmt"
	"math/rand"

	"spmap/internal/gen"
	"spmap/internal/model"
	"spmap/internal/portfolio"
	"spmap/internal/wf"
)

// The certify experiment measures the PR 10 certificate layer: every
// portfolio race now proves a makespan lower bound for its instance, so
// the returned mapping carries a certified optimality gap instead of a
// bare objective value, and an armed gap target terminates the race as
// soon as the incumbent is provably close enough to optimal.
//
// Two sections:
//
//   - sp-sweep: random series-parallel instances at n tasks. These
//     graphs are parallelism-rich, so the combinatorial+LP bounds stay
//     loose — the section documents the certificate cost (it is part of
//     every portfolio run) and the gap landscape, not early stopping.
//
//   - gap-stop: chain-dominated scientific-workflow instances, where
//     the critical-path bound is tight. Each instance runs twice under
//     the full default budget: once plain and once with an armed gap
//     target. The rows record the evaluations the certified stop saved
//     and whether the early-stopped makespan matches the full run's.

// CertifyRow is one certified portfolio measurement.
type CertifyRow struct {
	Section string `json:"section"` // sp-sweep | gap-stop
	Label   string `json:"label"`
	Tasks   int    `json:"tasks"`
	Seed    int64  `json:"seed"`
	// Certificate of the (possibly early-stopped) run.
	Makespan   float64 `json:"makespan"`
	LowerBound float64 `json:"lower_bound"`
	BoundName  string  `json:"bound_name"`
	Gap        float64 `json:"gap"`
	Evals      int     `json:"evals"`
	// Gap-stop section only: the armed target, whether the certified
	// stop fired, the evaluations it left unspent, and the full-budget
	// reference makespan the early stop is compared against.
	GapTarget    float64 `json:"gap_target,omitempty"`
	GapStop      bool    `json:"gap_stop,omitempty"`
	BudgetSaved  int     `json:"budget_saved,omitempty"`
	FullMakespan float64 `json:"full_makespan,omitempty"`
	FullEvals    int     `json:"full_evals,omitempty"`
	Unchanged    bool    `json:"unchanged,omitempty"` // early-stop makespan == full-run makespan
}

// certifyGapTarget is the armed target of the gap-stop section.
const certifyGapTarget = 0.05

// certifyBudget is the gap-stop section's evaluation budget: the
// portfolio default, so the saved-evaluations column reads directly
// against the budget a plain MapPortfolio call would burn.
const certifyBudget = 50100

// CertifyComparison runs both certificate sections.
func CertifyComparison(cfg Config) []CertifyRow {
	var rows []CertifyRow

	// Section 1: certificate landscape on random SP graphs.
	sizes := []int{50, 100, 250}
	p := cfg.platform()
	for _, n := range sizes {
		for i := 0; i < cfg.graphs(); i++ {
			seed := cfg.Seed + int64(i)
			g := gen.SeriesParallel(rand.New(rand.NewSource(seed)), n, gen.DefaultAttr())
			ev := model.NewEvaluator(g, p).WithSchedules(cfg.schedules(), seed)
			_, st, err := portfolio.MapWithEvaluator(ev, portfolio.Options{
				Seed: seed, Workers: cfg.Workers, Budget: cfg.gaBudget(),
			})
			if err != nil {
				panic(err)
			}
			rows = append(rows, CertifyRow{
				Section: "sp-sweep", Label: fmt.Sprintf("sp-n%d", n),
				Tasks: g.NumTasks(), Seed: seed,
				Makespan: st.Makespan, LowerBound: st.LowerBound,
				BoundName: st.BoundName, Gap: st.Gap, Evals: st.Evaluations,
			})
		}
	}

	// Section 2: certified early stopping on workflow instances.
	type wfInstance struct {
		family wf.Family
		scale  int
		label  string
	}
	instances := []wfInstance{
		{wf.Blast, 1, "blast-s1"},
		{wf.SRASearch, 1, "srasearch-s1"},
		{wf.Cycles, 2, "cycles-s2"},
		{wf.SoyKB, 2, "soykb-s2"},
	}
	const wfSeed = 7
	for _, in := range instances {
		g := wf.Generate(in.family, in.scale, rand.New(rand.NewSource(wfSeed)))
		mkEv := func() *model.Evaluator {
			return model.NewEvaluator(g, p).WithSchedules(cfg.schedules(), wfSeed)
		}
		_, full, err := portfolio.MapWithEvaluator(mkEv(), portfolio.Options{
			Seed: wfSeed, Workers: cfg.Workers, Budget: certifyBudget,
		})
		if err != nil {
			panic(err)
		}
		_, st, err := portfolio.MapWithEvaluator(mkEv(), portfolio.Options{
			Seed: wfSeed, Workers: cfg.Workers, Budget: certifyBudget,
			GapTarget: certifyGapTarget,
		})
		if err != nil {
			panic(err)
		}
		rows = append(rows, CertifyRow{
			Section: "gap-stop", Label: in.label,
			Tasks: g.NumTasks(), Seed: wfSeed,
			Makespan: st.Makespan, LowerBound: st.LowerBound,
			BoundName: st.BoundName, Gap: st.Gap, Evals: st.Evaluations,
			GapTarget: certifyGapTarget, GapStop: st.GapStop,
			BudgetSaved: st.BudgetSaved, FullMakespan: full.Makespan,
			FullEvals: full.Evaluations,
			Unchanged: st.Makespan == full.Makespan,
		})
	}
	return rows
}

// CertifyNotes returns the gap-stop summary line of rows: the first
// workflow whose certified stop saved at least a fifth of the budget at
// an unchanged final makespan (none when no row qualifies).
func CertifyNotes(rows []CertifyRow) []string {
	for _, r := range rows {
		if r.Section == "gap-stop" && r.GapStop && r.Unchanged &&
			r.BudgetSaved*5 >= certifyBudget {
			return []string{fmt.Sprintf("gap-stop: %s stopped at certified gap %.4f, saving %d of %d evaluations (%.0f%%) at an unchanged final makespan",
				r.Label, r.Gap, r.BudgetSaved, certifyBudget,
				100*float64(r.BudgetSaved)/certifyBudget)}
		}
	}
	return nil
}
