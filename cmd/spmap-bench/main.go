// Command spmap-bench reproduces the paper's evaluation: one experiment
// per figure and table (§IV). By default it runs a quick profile that
// preserves every series' shape; -paper selects the full protocol (30
// graphs per point, 100 random schedules, 500 GA generations, 5-minute
// MILP budgets).
//
// Usage:
//
//	spmap-bench -exp fig4            # one experiment
//	spmap-bench -exp all             # fig3 fig4 fig5 fig6 fig7 table1
//	spmap-bench -exp ablation        # extension: cut policies, gamma sweep
//	spmap-bench -exp localsearch     # extension: GA vs anneal/hill-climb vs decomp+refine
//	spmap-bench -exp pareto          # extension: multi-objective sweep vs NSGA-II fronts
//	spmap-bench -exp portfolio       # extension: portfolio racing vs single mappers
//	spmap-bench -exp online          # extension: warm-start repair vs cold re-map per event
//	spmap-bench -exp incremental     # extension: incremental session vs full replay move throughput
//	spmap-bench -exp service         # extension: mapping-service load sweep, coalesced vs direct
//	spmap-bench -exp service -addr u # the same load generator against a live spmapd at base URL u
//	spmap-bench -exp fleet           # extension: sharded replay fleets with checkpoint/resume
//	spmap-bench -exp fleet -store d  # persistent checkpoints: kill mid-run, re-run, traces verified
//	spmap-bench -exp robust          # extension: uncertainty-aware robust vs nominal under degradation
//	spmap-bench -exp certify         # extension: certified optimality gaps, gap-adaptive termination
//	spmap-bench -exp fig3 -paper     # paper-scale protocol
//	spmap-bench -exp fig3,table1 -csv out/ -json out.json
//	spmap-bench -exp incremental -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Every experiment prints its reports as aligned text. -csv DIR also
// writes one <report>.csv per report into DIR, and -json FILE writes
// all reports of the run as one JSON array of {id, title, rows, notes}
// objects.
//
// Unknown -exp names, negative numeric overrides, an unwritable -csv
// directory and uncreatable -cpuprofile/-memprofile paths exit with
// status 2 and a usage message before any experiment runs, instead of
// producing partial or garbage output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"spmap/internal/cli"
	"spmap/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spmap-bench: ")
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// isUsageError classifies option-validation failures (exit status 2).
func isUsageError(err error) bool { return cli.IsUsage(err) }

// params are the parsed flags an experiment reads.
type params struct {
	cfg   experiments.Config
	eps   float64
	addr  string
	store string
}

// experiment is one -exp name and the reports it produces. The error
// is fleet's resume gate: the reports returned with it are diagnostics.
type experiment struct {
	name  string
	paper bool // a figure or table of the paper: part of -exp all
	run   func(params) ([]experiments.Report, error)
}

// tables runs figure-style experiments, one report each.
func tables(fs ...func(experiments.Config) *experiments.Table) func(params) ([]experiments.Report, error) {
	return func(p params) ([]experiments.Report, error) {
		var reports []experiments.Report
		for _, f := range fs {
			reports = append(reports, f(p.cfg).Report())
		}
		return reports, nil
	}
}

// catalog is the -exp vocabulary, in the order -exp all and the help
// list them.
var catalog = []experiment{
	{"fig3", true, tables(experiments.Fig3)},
	{"fig4", true, tables(experiments.Fig4)},
	{"fig5", true, tables(experiments.Fig5)},
	{"fig6", true, tables(experiments.Fig6)},
	{"fig7", true, tables(experiments.Fig7)},
	{"table1", true, func(p params) ([]experiments.Report, error) {
		return []experiments.Report{{ID: "table1", Title: "WfCommons-like benchmark sets (average improvement, total mapper time)",
			Rows: experiments.Table1(p.cfg)}}, nil
	}},
	{"ablation", false, tables(experiments.CutPolicyAblation, experiments.GammaAblation, experiments.ScheduleCountAblation)},
	{"localsearch", false, tables(experiments.LocalSearchComparison)},
	{"pareto", false, func(p params) ([]experiments.Report, error) {
		return []experiments.Report{{ID: "pareto", Title: "weighted sweep vs. NSGA-II (equal budgets, random SP graphs)",
			Rows: experiments.ParetoComparisonEps(p.cfg, p.eps)}}, nil
	}},
	{"portfolio", false, tables(experiments.PortfolioComparison)},
	{"online", false, tables(experiments.OnlineComparison)},
	{"incremental", false, func(p params) ([]experiments.Report, error) {
		return []experiments.Report{{ID: "incremental", Title: "local-search move throughput (single worker, shared move sequence)",
			Rows: experiments.IncrementalComparison(p.cfg)}}, nil
	}},
	{"service", false, func(p params) ([]experiments.Report, error) {
		return []experiments.Report{{ID: "service", Title: "spmapd load generator (/v1/evaluate requests, determinism-gated)",
			Rows: experiments.ServiceLoad(p.cfg, p.addr)}}, nil
	}},
	{"fleet", false, func(p params) ([]experiments.Report, error) {
		rows, err := experiments.FleetComparison(p.cfg, p.store)
		return []experiments.Report{{ID: "fleet", Title: "sharded online replay streams with checkpoint/resume",
			Rows: rows, Notes: experiments.FleetNotes(rows)}}, err
	}},
	{"robust", false, func(p params) ([]experiments.Report, error) {
		return []experiments.Report{
			{ID: "robust", Title: "nominal vs. uncertainty-aware mapping on degrade-heavy scenario families " +
				"(makespans normalized by the undegraded nominal makespan; tail = p95 over worlds)",
				Rows: experiments.RobustComparison(p.cfg)},
			{ID: "robust_cost", Title: "Monte-Carlo batching cost (batch 64, per-candidate µs)",
				Rows: experiments.RobustCost(p.cfg)},
		}, nil
	}},
	{"certify", false, func(p params) ([]experiments.Report, error) {
		rows := experiments.CertifyComparison(p.cfg)
		return []experiments.Report{{ID: "certify", Title: "certified optimality gaps and gap-adaptive termination",
			Rows: rows, Notes: experiments.CertifyNotes(rows)}}, nil
	}},
}

// run is main's testable body: it parses and validates args, executes
// the experiments and writes the reports to stdout (and to -csv/-json).
// Errors of type usageError (and flag parse errors, which the FlagSet
// reports to stderr itself) correspond to exit status 2.
func run(args []string, stdout, stderr io.Writer) error {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	fs := flag.NewFlagSet("spmap-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(names, " ")+" all")
		paper     = fs.Bool("paper", false, "full paper-scale protocol (slow)")
		graphs    = fs.Int("graphs", 0, "override graphs per data point (>= 0; 0 = profile default)")
		schedules = fs.Int("schedules", 0, "override random schedules in the cost function (>= 0)")
		gaGens    = fs.Int("generations", 0, "override NSGA-II generations (>= 0)")
		milpBudg  = fs.Duration("milp-budget", 0, "override MILP time limit (>= 0)")
		seed      = fs.Int64("seed", 1, "base RNG seed")
		workers   = fs.Int("workers", 0, "evaluation-engine worker pool (>= 0; 0 = GOMAXPROCS, 1 = serial; results are identical)")
		eps       = fs.Float64("eps", 0, "Pareto archive ε-grid resolution for -exp pareto (>= 0; 0 = exact front)")
		csvDir    = fs.String("csv", "", "also write one <report>.csv per report into this directory")
		addr      = fs.String("addr", "", "for -exp service: fire the load generator at a live spmapd base URL instead of in-process services")
		jsonPath  = fs.String("json", "", "also write every report of the run to this file as one JSON array of {id, title, rows, notes}")
		storeDir  = fs.String("store", "", "for -exp fleet: back the resume-verify section with a persistent checkpoint directory (survives a killed process)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile taken after the experiment runs to this file")
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
		fmt.Fprintf(stderr, "spmap-bench: %v\n", err)
		fs.Usage()
		return err
	}
	switch {
	case *graphs < 0:
		return usage("-graphs must be >= 0, got %d", *graphs)
	case *schedules < 0:
		return usage("-schedules must be >= 0, got %d", *schedules)
	case *gaGens < 0:
		return usage("-generations must be >= 0, got %d", *gaGens)
	case *milpBudg < 0:
		return usage("-milp-budget must be >= 0, got %s", *milpBudg)
	case *eps < 0:
		return usage("-eps must be >= 0, got %g", *eps)
	case *workers < 0:
		return usage("-workers must be >= 0, got %d", *workers)
	}
	var selected []experiment
	has := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(catalog, func(e experiment) bool { return e.name == name })
		switch {
		case name == "all":
			for _, e := range catalog {
				if e.paper {
					selected = append(selected, e)
				}
			}
		case i < 0:
			return usage("unknown experiment %q", name)
		default:
			selected = append(selected, catalog[i])
		}
		has[name] = true
	}
	if *addr != "" && !has["service"] {
		return usage("-addr applies to -exp service only")
	}
	if *storeDir != "" && !has["fleet"] {
		return usage("-store applies to -exp fleet only")
	}
	if *csvDir != "" {
		// Probe writability upfront: failing after hours of sweep is the
		// expensive way to learn about a typoed output directory.
		probe, err := os.CreateTemp(*csvDir, ".spmap-bench-probe-*")
		if err != nil {
			return usage("-csv directory not writable: %v", err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	// Profile files are created before any experiment runs for the same
	// reason: a typoed path must fail in milliseconds, not after the
	// sweep. The CPU profile covers the experiment loop only (not flag
	// parsing); the heap profile is taken after the last experiment.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return usage("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return usage("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	var memProfFile *os.File
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return usage("-memprofile: %v", err)
		}
		memProfFile = f
		defer f.Close()
	}

	p := params{
		cfg: experiments.Config{
			Paper:          *paper,
			GraphsPerPoint: *graphs,
			Schedules:      *schedules,
			GAGenerations:  *gaGens,
			MILPTimeLimit:  *milpBudg,
			Seed:           *seed,
			Workers:        *workers,
		},
		eps: *eps, addr: *addr, store: *storeDir,
	}
	var all []experiments.Report
	for _, e := range selected {
		start := time.Now()
		reports, err := e.run(p)
		for i, r := range reports {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			if werr := r.Text(stdout); werr != nil {
				return werr
			}
		}
		if err != nil {
			return err
		}
		if *csvDir != "" {
			for _, r := range reports {
				if err := writeFile(filepath.Join(*csvDir, r.ID+".csv"), r.CSV); err != nil {
					return err
				}
			}
		}
		all = append(all, reports...)
		fmt.Fprintf(stdout, "\n[%s completed in %s]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, func(w io.Writer) error { return experiments.EncodeJSON(w, all) }); err != nil {
			return err
		}
	}
	if memProfFile != nil {
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(memProfFile); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

// writeFile creates path and fills it with write, reporting the first
// of the write and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
