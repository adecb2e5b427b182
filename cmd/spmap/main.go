// Command spmap maps a task graph (JSON) onto a heterogeneous platform
// and prints the resulting assignment, makespan and improvement.
//
// Usage:
//
//	spmap -graph app.json [-platform platform.json] [-algo spfirstfit]
//	      [-schedules 100] [-gamma 2] [-refine] [-json]
//	      [-objective time|energy|pareto] [-eps 0.01] [-front front.csv]
//
// Algorithms: singlenode, seriesparallel, snfirstfit, spfirstfit, gamma,
// heft, peft, nsga2, anneal, hillclimb, portfolio, milp-device,
// milp-time, milp-zhouliu. The -refine flag polishes any algorithm's
// mapping with local-search refinement (never worse, deterministic under
// -seed for any -workers value). "portfolio" races the whole mapper
// portfolio (SPFF+Refine, HEFT/PEFT+Refine, anneal, hillclimb, NSGA-II)
// concurrently under the shared -ls-budget with a memoizing evaluation
// cache and cross-pollination of the incumbent best mapping; it reports
// a certified makespan lower bound and optimality gap, and -gap-target
// (in [0, 1)) stops the race early once the certified gap reaches the
// target instead of burning the remaining budget.
//
// The -objective flag selects the optimization target: "time" (the
// default single-objective makespan), "energy" (pure compute energy;
// requires the local-search algorithms or -refine), "pareto" (the
// full makespan x energy trade-off: -algo nsga2 selects the
// two-objective NSGA-II driver, anything else the weighted local-search
// sweep; the front is printed, exported as CSV via -front, and bounded
// by the ε-dominance resolution -eps), or "robust" (the three-objective
// makespan x energy x tail-makespan trade-off under the stochastic cost
// model: every candidate is additionally evaluated under -samples
// Monte-Carlo perturbed cost worlds drawn from the -noise-* multiplier
// spreads, and the -tail quantile of its perturbed makespans becomes
// the third, uncertainty-hedging objective; NSGA-II only).
//
// The -scenario flag switches to online replay mode: the graph becomes
// a live instance perturbed by the scenario's event stream (device
// failures/degradations, subgraph arrivals/departures; generate streams
// with spmap-gen -kind scenario), with the incumbent mapping migrated
// and warm-start-repaired after each event under the -ls-budget
// per-event budget. -repair selects the repair pass: refine (default),
// portfolio, or cold (re-map from scratch — the comparison baseline).
//
// Unknown -algo/-objective/-repair values and nonsensical numeric flags
// (negative -eps, non-positive -ls-budget, -workers, -schedules out of
// range, -gamma < 1) exit with status 2 and a usage message instead of
// silently falling back to defaults.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"spmap"
	"spmap/internal/cli"
	"spmap/internal/experiments"
	"spmap/internal/mappers/decomp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spmap: ")
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// isUsageError classifies option-validation failures (exit status 2).
func isUsageError(err error) bool { return cli.IsUsage(err) }

// knownAlgos is the -algo vocabulary (for -objective time|energy).
var knownAlgos = map[string]bool{
	"singlenode": true, "seriesparallel": true, "snfirstfit": true,
	"spfirstfit": true, "gamma": true, "heft": true, "peft": true,
	"nsga2": true, "anneal": true, "hillclimb": true, "portfolio": true,
	"milp-device": true, "milp-time": true, "milp-zhouliu": true,
	"sweep": true, // pareto-only driver name, accepted for symmetry
}

// run is main's testable body: it parses and validates args, executes
// the mapping, and writes the report to stdout. Errors of type
// usageError (and flag parse errors, which the FlagSet reports to
// stderr itself) correspond to exit status 2.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath    = fs.String("graph", "", "task graph JSON file (required)")
		platformPath = fs.String("platform", "", "platform JSON file (default: paper reference platform)")
		algo         = fs.String("algo", "spfirstfit", "mapping algorithm")
		schedules    = fs.Int("schedules", 100, "random schedules in the cost function (>= 0)")
		gamma        = fs.Float64("gamma", 2, "gamma for -algo gamma (>= 1)")
		gaGens       = fs.Int("generations", 500, "NSGA-II generations (> 0)")
		milpBudget   = fs.Duration("milp-budget", 30*time.Second, "MILP time limit")
		lsBudget     = fs.Int("ls-budget", 50100, "local-search / -refine / portfolio evaluation budget; per-event repair budget in -scenario mode (> 0)")
		gapTarget    = fs.Float64("gap-target", 0, "stop -algo portfolio once the certified optimality gap reaches this target (in [0, 1); 0 = run the full budget)")
		refine       = fs.Bool("refine", false, "polish the mapping with local-search refinement")
		objective    = fs.String("objective", "time", "optimization objective: time, energy, pareto, or robust")
		epsFlag      = fs.Float64("eps", 0, "Pareto archive ε-grid resolution for -objective pareto|robust (>= 0; 0 = exact front)")
		frontOut     = fs.String("front", "", "write the Pareto front as CSV to this file (-objective pareto|robust)")
		samples      = fs.Int("samples", spmap.DefaultRobustSamples, "Monte-Carlo samples per candidate for -objective robust (> 0)")
		tailFlag     = fs.Float64("tail", 0.95, "reported tail quantile for -objective robust (in (0, 1))")
		noiseKind    = fs.String("noise-kind", "lognormal", "-objective robust noise distribution: lognormal or uniform")
		noiseExec    = fs.Float64("noise-exec", 0, "per-(task, device) execution-time noise spread (-objective robust)")
		noiseDevice  = fs.Float64("noise-device", 0.5, "common-mode per-device noise spread (-objective robust)")
		noiseXfer    = fs.Float64("noise-transfer", 0.5, "per-edge transfer-size noise spread (-objective robust)")
		workers      = fs.Int("workers", runtime.GOMAXPROCS(0), "evaluation-engine worker pool (> 0; results are identical for any value)")
		scenario     = fs.String("scenario", "", "replay this online scenario JSON against the graph (see spmap-gen -kind scenario)")
		repairMode   = fs.String("repair", "refine", "scenario repair mode: refine, portfolio, or cold (re-map from scratch)")
		seed         = fs.Int64("seed", 1, "RNG seed (schedules, GA, local search, portfolio, replay)")
		asJSON       = fs.Bool("json", false, "emit machine-readable JSON")
		dotOut       = fs.String("dot", "", "write the mapped task graph as Graphviz DOT to this file")
		gantt        = fs.Bool("gantt", false, "print a textual Gantt chart of the best schedule")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		// The FlagSet already reported the problem and the usage to
		// stderr; classify it for main's exit-2 path without reprinting.
		return cli.Usage(err)
	}
	usage := func(format string, a ...any) error {
		err := cli.Usage(fmt.Errorf(format, a...))
		fmt.Fprintf(stderr, "spmap: %v\n", err)
		fs.Usage()
		return err
	}
	// Flags the user passed explicitly, for rejecting combinations where
	// a default-valued flag is fine but a deliberate one is ignored.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	robustOnly := ""
	for _, name := range []string{"samples", "tail", "noise-kind", "noise-exec", "noise-device", "noise-transfer"} {
		if explicit[name] && robustOnly == "" {
			robustOnly = name
		}
	}
	noise := spmap.NoiseModel{
		ExecSigma: *noiseExec, DeviceSigma: *noiseDevice, TransferSigma: *noiseXfer,
		Seed: *seed,
	}
	kindOK := true
	switch *noiseKind {
	case "lognormal":
		noise.Kind = spmap.NoiseLognormal
	case "uniform":
		noise.Kind = spmap.NoiseUniform
	default:
		kindOK = false
	}
	switch {
	case *graphPath == "":
		return usage("-graph is required")
	case !knownAlgos[*algo]:
		return usage("unknown algorithm %q", *algo)
	case *objective != "time" && *objective != "energy" && *objective != "pareto" && *objective != "robust":
		return usage("unknown objective %q (time, energy, pareto, robust)", *objective)
	case *objective != "robust" && robustOnly != "":
		return usage("-%s configures the robust objective; pass -objective robust", robustOnly)
	case *objective == "robust" && !kindOK:
		return usage("unknown -noise-kind %q (lognormal, uniform)", *noiseKind)
	case *objective == "robust" && *samples <= 0:
		return usage("-samples must be > 0, got %d", *samples)
	case *objective == "robust" && !(*tailFlag > 0 && *tailFlag < 1):
		return usage("-tail must be in (0, 1), got %g", *tailFlag)
	case *objective == "robust" && noise.Validate() != nil:
		return usage("invalid noise model: %v", noise.Validate())
	case *objective == "robust" && (*algo != "nsga2" && (*algo != "spfirstfit" || explicit["algo"])):
		return usage("-objective robust supports -algo nsga2 only, not %q", *algo)
	case *epsFlag < 0:
		return usage("-eps must be >= 0, got %g", *epsFlag)
	case *lsBudget <= 0:
		return usage("-ls-budget must be > 0, got %d", *lsBudget)
	case !(*gapTarget >= 0 && *gapTarget < 1):
		return usage("-gap-target must be in [0, 1), got %g", *gapTarget)
	case explicit["gap-target"] && (*algo != "portfolio" || *scenario != ""):
		return usage("-gap-target applies to -algo portfolio only (the other mappers consume no certified-gap stop)")
	case *workers <= 0:
		return usage("-workers must be > 0, got %d", *workers)
	case *schedules < 0:
		return usage("-schedules must be >= 0, got %d", *schedules)
	case *gamma < 1:
		return usage("-gamma must be >= 1, got %g", *gamma)
	case *gaGens <= 0:
		return usage("-generations must be > 0, got %d", *gaGens)
	case *algo == "sweep" && *objective != "pareto":
		return usage("-algo sweep is a pareto driver; pass -objective pareto")
	case *objective == "pareto" && *algo != "sweep" && *algo != "nsga2" && *algo != "spfirstfit":
		return usage("-objective pareto supports -algo sweep (default) or nsga2, not %q", *algo)
	case *objective == "energy" && (*algo == "portfolio" ||
		(*algo != "anneal" && *algo != "hillclimb" && !*refine)):
		return usage("-objective energy requires -algo anneal|hillclimb or -refine " +
			"(the other mappers, including the portfolio, optimize the makespan only)")
	case *repairMode != "refine" && *repairMode != "portfolio" && *repairMode != "cold":
		return usage("unknown repair mode %q (refine, portfolio, cold)", *repairMode)
	case *scenario != "" && *objective != "time":
		return usage("-scenario replay optimizes the makespan only; drop -objective %s", *objective)
	case *scenario != "" && (*dotOut != "" || *gantt || *frontOut != "" || *refine || explicit["algo"]):
		return usage("-scenario replay mode does not support -algo/-refine/-dot/-gantt/-front " +
			"(select the repair pass with -repair instead)")
	case *scenario != "" && explicit["schedules"] && *schedules == 0:
		return usage("-scenario replay has no BFS-only mode; -schedules must be > 0 (default 100)")
	case *scenario == "" && explicit["repair"]:
		return usage("-repair selects the -scenario replay repair pass; pass -scenario")
	}

	g, err := cli.ReadGraphFile(*graphPath)
	if err != nil {
		return err
	}
	p, err := cli.ReadPlatformFile(*platformPath)
	if err != nil {
		return err
	}

	if *scenario != "" {
		return runScenario(stdout, g, p, *scenario, *repairMode, *schedules, *seed, *workers, *lsBudget, *asJSON)
	}
	ev := spmap.NewEvaluator(g, p).WithSchedules(*schedules, *seed)
	if *objective == "pareto" {
		return runPareto(stdout, g, p, ev, *algo, *epsFlag, *seed, *workers, *lsBudget, *asJSON, *frontOut)
	}
	if *objective == "robust" {
		// MapRobustWithEvaluator's default budget (4200) is tuned for the
		// extra Samples simulations per candidate; only an explicit
		// -ls-budget overrides.
		budget := 0
		if explicit["ls-budget"] {
			budget = *lsBudget
		}
		return runRobust(stdout, g, p, ev, noise, *samples, *tailFlag, *epsFlag, *seed, *workers, budget, *asJSON, *frontOut)
	}
	var wTime, wEnergy float64
	switch *objective {
	case "time":
		wTime, wEnergy = 1, 0
	case "energy":
		wTime, wEnergy = 0, 1 // validated above: local search or -refine
	}
	start := time.Now()
	var m spmap.Mapping
	var stats *spmap.MapperStats
	var lsStats *spmap.LocalSearchStats
	var pfStats *spmap.PortfolioStats
	switch *algo {
	case "singlenode":
		m, stats, err = runDecomp(g, p, decomp.SingleNode, spmap.Basic, 0, *workers)
	case "seriesparallel":
		m, stats, err = runDecomp(g, p, decomp.SeriesParallel, spmap.Basic, 0, *workers)
	case "snfirstfit":
		m, stats, err = runDecomp(g, p, decomp.SingleNode, spmap.FirstFit, 0, *workers)
	case "spfirstfit":
		m, stats, err = runDecomp(g, p, decomp.SeriesParallel, spmap.FirstFit, 0, *workers)
	case "gamma":
		m, stats, err = runDecomp(g, p, decomp.SeriesParallel, spmap.GammaThreshold, *gamma, *workers)
	case "heft":
		m = spmap.MapHEFT(g, p)
	case "peft":
		m = spmap.MapPEFT(g, p)
	case "nsga2":
		m, _ = spmap.MapGenetic(g, p, spmap.GAOptions{Generations: *gaGens, Seed: *seed, Workers: *workers})
	case "anneal", "hillclimb":
		alg := spmap.Anneal
		if *algo == "hillclimb" {
			alg = spmap.HillClimb
		}
		// Local search from the pure-CPU baseline, under the same
		// -schedules cost function the result is judged with.
		mm, st, lerr := spmap.Refine(ev, spmap.BaselineMapping(g, p), spmap.LocalSearchOptions{
			Algorithm: alg, Seed: *seed, Workers: *workers, Budget: *lsBudget,
			WTime: wTime, WEnergy: wEnergy,
		})
		if lerr != nil {
			return lerr
		}
		m, lsStats = mm, &st
	case "portfolio":
		mm, st, perr := spmap.MapPortfolioWithEvaluator(ev, spmap.PortfolioOptions{
			Seed: *seed, Workers: *workers, Budget: *lsBudget, GapTarget: *gapTarget,
		})
		if perr != nil {
			return perr
		}
		m, pfStats = mm, &st
	case "milp-device":
		m = spmap.MapMILP(g, p, spmap.MILPWGDPDevice, *milpBudget).Mapping
	case "milp-time":
		m = spmap.MapMILP(g, p, spmap.MILPWGDPTime, *milpBudget).Mapping
	case "milp-zhouliu":
		m = spmap.MapMILP(g, p, spmap.MILPZhouLiu, *milpBudget).Mapping
	default:
		// knownAlgos and this dispatch are maintained together; a name
		// validated above but not dispatched here is a programming error,
		// not a user error.
		return fmt.Errorf("internal error: algorithm %q validated but not dispatched", *algo)
	}
	if err != nil {
		return err
	}
	if *refine && (lsStats != nil || pfStats != nil) {
		// anneal/hillclimb already are local search under ev, and the
		// portfolio contains refinement members; a second pass with the
		// same seed and budget would only duplicate the work (and
		// misreport the search effort).
		fmt.Fprintf(stderr, "spmap: -refine has no effect on -algo %s (already includes local search); skipping\n", *algo)
	} else if *refine {
		refined, rst, rerr := spmap.Refine(ev, m, spmap.LocalSearchOptions{
			Seed: *seed, Workers: *workers, Budget: *lsBudget,
			WTime: wTime, WEnergy: wEnergy,
		})
		if rerr != nil {
			return rerr
		}
		m, lsStats = refined, &rst
		if !*asJSON {
			fmt.Fprintf(stdout, "refine:      %d evaluations, %d moves\n", rst.Evaluations, rst.Moves)
		}
	}
	elapsed := time.Since(start)

	base := ev.BaselineMakespan() // cached; Improvement below reuses it
	baseEn := ev.Energy(spmap.BaselineMapping(g, p))
	ms := ev.Makespan(m)
	en := ev.Energy(m)
	if *asJSON {
		out := map[string]any{
			"algorithm":       *algo,
			"objective":       *objective,
			"mapping":         m,
			"makespan":        ms,
			"baseline":        base,
			"energy":          en,
			"baseline_energy": baseEn,
			"improvement":     spmap.Improvement(ev, m),
			"elapsed_ms":      float64(elapsed.Microseconds()) / 1000,
		}
		if stats != nil {
			out["stats"] = stats
		}
		if lsStats != nil {
			out["localsearch_stats"] = lsStats
		}
		if pfStats != nil {
			out["portfolio_stats"] = pfStats
			out["lower_bound"] = pfStats.LowerBound
			out["gap"] = pfStats.Gap
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(stdout, "algorithm:   %s\n", *algo)
	fmt.Fprintf(stdout, "objective:   %s\n", *objective)
	fmt.Fprintf(stdout, "tasks:       %d, edges: %d\n", g.NumTasks(), g.NumEdges())
	fmt.Fprintf(stdout, "baseline:    %.3f ms, %.3f J (pure %s)\n", 1e3*base, baseEn, p.Devices[p.Default].Name)
	fmt.Fprintf(stdout, "makespan:    %.3f ms\n", 1e3*ms)
	fmt.Fprintf(stdout, "energy:      %.3f J\n", en)
	fmt.Fprintf(stdout, "improvement: %.1f %%\n", 100*spmap.Improvement(ev, m))
	fmt.Fprintf(stdout, "elapsed:     %s\n", elapsed.Round(time.Microsecond))
	if pfStats != nil {
		fmt.Fprintf(stdout, "portfolio:   %d members, %d rounds, %d evaluations (budget %d), %d budget moved, cache hit rate %.0f %%\n",
			len(pfStats.Members), pfStats.Rounds, pfStats.Evaluations, *lsBudget,
			pfStats.BudgetMoved, 100*pfStats.Cache.HitRate())
		stopNote := ""
		if pfStats.GapStop {
			stopNote = fmt.Sprintf(", early stop at gap target %g (saved %d evaluations)", *gapTarget, pfStats.BudgetSaved)
		}
		fmt.Fprintf(stdout, "certified:   lower bound %.3f ms (%s), gap %.1f %%%s\n",
			1e3*pfStats.LowerBound, pfStats.BoundName, 100*pfStats.Gap, stopNote)
		for _, ms := range pfStats.Members {
			marker := " "
			if pfStats.Best >= 0 && pfStats.Members[pfStats.Best].Kind == ms.Kind {
				marker = "*"
			}
			fmt.Fprintf(stdout, "  %s%-12s budget %6d  evals %6d  syncs %3d  adopted %2d  makespan %.3f ms\n",
				marker, ms.Kind, ms.Budget, ms.Evaluations, ms.Syncs, ms.Injected, 1e3*ms.Makespan)
		}
	}
	fmt.Fprintln(stdout, "mapping:")
	for v := spmap.NodeID(0); int(v) < g.NumTasks(); v++ {
		name := g.Task(v).Name
		if name == "" {
			name = fmt.Sprintf("task%d", int(v))
		}
		fmt.Fprintf(stdout, "  %-24s -> %s\n", name, p.Devices[m[v]].Name)
	}
	if *gantt {
		fmt.Fprintln(stdout)
		if s := ev.BestSchedule(m); s != nil {
			s.WriteGantt(stdout, g, func(d int) string { return p.Devices[d].Name })
		}
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			return err
		}
		err = g.WriteDOT(f, nil, func(v spmap.NodeID) int { return m[v] })
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dotOut)
	}
	return nil
}

// runScenario replays an online scenario against the graph: after each
// event (device failure/degradation, subgraph arrival/departure) the
// incumbent mapping is migrated and repaired under the -ls-budget
// per-event budget with the selected -repair mode.
func runScenario(stdout io.Writer, g *spmap.DAG, p *spmap.Platform,
	path, mode string, schedules int, seed int64, workers, budget int, asJSON bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sc, err := spmap.ReadScenario(f)
	f.Close()
	if err != nil {
		return err
	}
	opt := spmap.OnlineOptions{
		Schedules: schedules, Seed: seed, Workers: workers, RepairBudget: budget,
	}
	switch mode {
	case "portfolio":
		opt.Repair = spmap.RepairPortfolio
	case "cold":
		opt.Cold = true
	}
	start := time.Now()
	m, stats, err := spmap.Replay(g, p, sc, opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if asJSON {
		out := map[string]any{
			"repair":            mode,
			"events":            stats.Events,
			"initial_makespan":  stats.InitialMakespan,
			"final_makespan":    stats.FinalMakespan,
			"final_mapping":     m,
			"total_evaluations": stats.TotalEvaluations,
			"kernel_rebuilds":   stats.KernelRebuilds,
			"elapsed_ms":        float64(elapsed.Microseconds()) / 1000,
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(stdout, "scenario:    %s (%d events, repair %s, budget %d/event)\n",
		path, len(sc.Events), mode, budget)
	fmt.Fprintf(stdout, "initial:     %d tasks, %d devices, makespan %.3f ms\n",
		stats.InitialTasks, stats.InitialDevices, 1e3*stats.InitialMakespan)
	fmt.Fprintf(stdout, "%5s %-15s %6s %4s %7s %7s %7s %12s %12s %12s\n",
		"event", "kind", "tasks", "dev", "evict", "arrive", "depart", "migrated_ms", "makespan_ms", "baseline_ms")
	for _, e := range stats.Events {
		fmt.Fprintf(stdout, "%5d %-15s %6d %4d %7d %7d %7d %12.3f %12.3f %12.3f\n",
			e.Index, e.Kind, e.Tasks, e.Devices, e.Evicted, e.Arrived, e.Departed,
			1e3*e.MigratedMakespan, 1e3*e.Makespan, 1e3*e.Baseline)
	}
	fmt.Fprintf(stdout, "final:       makespan %.3f ms, %d evaluations, %d kernel rebuilds, cache hit rate %.0f %%\n",
		1e3*stats.FinalMakespan, stats.TotalEvaluations, stats.KernelRebuilds, 100*stats.Cache.HitRate())
	fmt.Fprintf(stdout, "elapsed:     %s\n", elapsed.Round(time.Microsecond))
	return nil
}

// runPareto maps under the two-objective (makespan, energy) model and
// reports the ε-dominance front.
func runPareto(stdout io.Writer, g *spmap.DAG, p *spmap.Platform, ev *spmap.Evaluator,
	algo string, eps float64, seed int64, workers, budget int, asJSON bool, frontOut string) error {
	var palgo spmap.ParetoAlgorithm
	switch algo {
	case "nsga2":
		palgo = spmap.ParetoNSGA2
	case "sweep", "spfirstfit": // spfirstfit is the -algo flag default
		palgo = spmap.ParetoSweep
	default:
		// Unreachable: the upfront validation admits only the three names.
		return fmt.Errorf("internal error: pareto driver %q validated but not dispatched", algo)
	}
	start := time.Now()
	front, stats, err := spmap.MapParetoWithEvaluator(ev, spmap.ParetoOptions{
		Algorithm: palgo, Eps: eps, Seed: seed, Workers: workers, Budget: budget,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	base := ev.BaselineMakespan()
	baseEn := ev.Energy(spmap.BaselineMapping(g, p))
	// Hypervolume normalized by the baseline box; degenerate baselines
	// (e.g. platforms with no PowerW data) report 0 instead of NaN.
	hv := 0.0
	if base > 0 && baseEn > 0 {
		hv = front.Hypervolume(base, baseEn) / (base * baseEn)
	}

	if frontOut != "" {
		f, err := os.Create(frontOut)
		if err != nil {
			return err
		}
		err = experiments.WriteCSVFront(f, front)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if asJSON {
		type jsonPoint struct {
			Makespan float64       `json:"makespan"`
			Energy   float64       `json:"energy"`
			Mapping  spmap.Mapping `json:"mapping"`
		}
		pts := make([]jsonPoint, len(front))
		for i, pt := range front {
			pts[i] = jsonPoint{pt.Makespan(), pt.Energy(), pt.Mapping}
		}
		out := map[string]any{
			"algorithm":       palgo.String(),
			"objective":       "pareto",
			"eps":             eps,
			"front":           pts,
			"baseline":        base,
			"baseline_energy": baseEn,
			"stats":           stats,
			"hypervolume":     hv,
			"elapsed_ms":      float64(elapsed.Microseconds()) / 1000,
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(stdout, "algorithm:   %s (pareto)\n", palgo)
	fmt.Fprintf(stdout, "tasks:       %d, edges: %d\n", g.NumTasks(), g.NumEdges())
	fmt.Fprintf(stdout, "baseline:    %.3f ms, %.3f J (pure %s)\n", 1e3*base, baseEn, p.Devices[p.Default].Name)
	fmt.Fprintf(stdout, "front:       %d points (eps %g, %d candidates, %d evaluations)\n",
		stats.FrontSize, eps, stats.ArchiveSeen, stats.Evaluations)
	fmt.Fprintf(stdout, "hypervolume: %.4f (of the baseline box)\n", hv)
	fmt.Fprintf(stdout, "elapsed:     %s\n", elapsed.Round(time.Microsecond))
	fmt.Fprintf(stdout, "%12s %12s %10s %10s\n", "makespan_ms", "energy_J", "t_impr", "e_impr")
	for _, pt := range front {
		tImpr, eImpr := 0.0, 0.0
		if base > 0 && pt.Makespan() < base {
			tImpr = (base - pt.Makespan()) / base
		}
		if baseEn > 0 && pt.Energy() < baseEn {
			eImpr = (baseEn - pt.Energy()) / baseEn
		}
		fmt.Fprintf(stdout, "%12.3f %12.3f %9.1f%% %9.1f%%\n", 1e3*pt.Makespan(), pt.Energy(), 100*tImpr, 100*eImpr)
	}
	if frontOut != "" {
		fmt.Fprintf(stdout, "wrote %s\n", frontOut)
	}
	return nil
}

// runRobust maps under the three-objective (makespan, energy, tail
// makespan) stochastic cost model and reports the time × energy ×
// robustness front; the min-robust point is the uncertainty-hedged
// mapping.
func runRobust(stdout io.Writer, g *spmap.DAG, p *spmap.Platform, ev *spmap.Evaluator,
	noise spmap.NoiseModel, samples int, tail, eps float64, seed int64, workers, budget int,
	asJSON bool, frontOut string) error {
	start := time.Now()
	front, stats, err := spmap.MapRobustWithEvaluator(ev, spmap.RobustOptions{
		Noise: noise, Samples: samples, Tail: tail,
		Eps: eps, Seed: seed, Workers: workers, Budget: budget,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	base := ev.BaselineMakespan()
	baseEn := ev.Energy(spmap.BaselineMapping(g, p))

	if frontOut != "" {
		f, err := os.Create(frontOut)
		if err != nil {
			return err
		}
		err = experiments.WriteCSVFrontObjs(f, front, []string{"makespan", "energy", "robust"})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if asJSON {
		type jsonPoint struct {
			Makespan float64       `json:"makespan"`
			Energy   float64       `json:"energy"`
			Robust   float64       `json:"robust"`
			Mapping  spmap.Mapping `json:"mapping"`
		}
		pts := make([]jsonPoint, len(front))
		for i, pt := range front {
			pts[i] = jsonPoint{pt.Makespan(), pt.Energy(), pt.Objective(2), pt.Mapping}
		}
		out := map[string]any{
			"algorithm":       "nsga2",
			"objective":       "robust",
			"samples":         samples,
			"tail":            tail,
			"noise_kind":      noise.Kind.String(),
			"eps":             eps,
			"front":           pts,
			"baseline":        base,
			"baseline_energy": baseEn,
			"stats":           stats,
			"elapsed_ms":      float64(elapsed.Microseconds()) / 1000,
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(stdout, "algorithm:   nsga2 (robust)\n")
	fmt.Fprintf(stdout, "tasks:       %d, edges: %d\n", g.NumTasks(), g.NumEdges())
	fmt.Fprintf(stdout, "baseline:    %.3f ms, %.3f J (pure %s)\n", 1e3*base, baseEn, p.Devices[p.Default].Name)
	fmt.Fprintf(stdout, "noise:       %s (exec %g, device %g, transfer %g), %d samples, p%g tail\n",
		noise.Kind, noise.ExecSigma, noise.DeviceSigma, noise.TransferSigma, samples, 100*tail)
	fmt.Fprintf(stdout, "front:       %d points (eps %g, %d candidates, %d evaluations)\n",
		stats.FrontSize, eps, stats.ArchiveSeen, stats.Evaluations)
	fmt.Fprintf(stdout, "elapsed:     %s\n", elapsed.Round(time.Microsecond))
	fmt.Fprintf(stdout, "%12s %12s %12s\n", "makespan_ms", "energy_J", "robust_ms")
	for _, pt := range front {
		fmt.Fprintf(stdout, "%12.3f %12.3f %12.3f\n", 1e3*pt.Makespan(), pt.Energy(), 1e3*pt.Objective(2))
	}
	if len(front) > 0 {
		hedged := front.MinObjective(2)
		fmt.Fprintf(stdout, "hedged:      makespan %.3f ms, tail %.3f ms (min-robust point)\n",
			1e3*hedged.Makespan(), 1e3*hedged.Objective(2))
	}
	if frontOut != "" {
		fmt.Fprintf(stdout, "wrote %s\n", frontOut)
	}
	return nil
}

func runDecomp(g *spmap.DAG, p *spmap.Platform, s decomp.Strategy, h spmap.Heuristic, gamma float64, workers int) (spmap.Mapping, *spmap.MapperStats, error) {
	m, st, err := decomp.Map(g, p, decomp.Options{Strategy: s, Heuristic: h, Gamma: gamma, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	return m, &st, nil
}
