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
//	spmap-bench -exp fleet           # extension: sharded replay fleets with checkpoint/resume
//	spmap-bench -exp fleet -store d  # persistent checkpoints: kill mid-run, re-run, traces verified
//	spmap-bench -exp robust          # extension: uncertainty-aware robust vs nominal under degradation
//	spmap-bench -exp certify         # extension: certified optimality gaps, gap-adaptive termination
//	spmap-bench -exp fig3 -paper     # paper-scale protocol
//	spmap-bench -exp incremental -cpuprofile cpu.pprof -memprofile mem.pprof
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

// knownExperiments is the -exp vocabulary.
var knownExperiments = map[string]bool{
	"fig3": true, "fig4": true, "fig5": true, "fig6": true, "fig7": true,
	"table1": true, "ablation": true, "localsearch": true, "pareto": true,
	"portfolio": true, "online": true, "incremental": true, "service": true,
	"fleet": true, "robust": true, "certify": true,
}

// run is main's testable body: it parses and validates args, executes
// the experiments and writes the reports to stdout. Errors of type
// usageError (and flag parse errors, which the FlagSet reports to
// stderr itself) correspond to exit status 2.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spmap-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: fig3 fig4 fig5 fig6 fig7 table1 ablation localsearch pareto portfolio online incremental service fleet robust certify all")
		paper     = fs.Bool("paper", false, "full paper-scale protocol (slow)")
		graphs    = fs.Int("graphs", 0, "override graphs per data point (>= 0; 0 = profile default)")
		schedules = fs.Int("schedules", 0, "override random schedules in the cost function (>= 0)")
		gaGens    = fs.Int("generations", 0, "override NSGA-II generations (>= 0)")
		milpBudg  = fs.Duration("milp-budget", 0, "override MILP time limit (>= 0)")
		seed      = fs.Int64("seed", 1, "base RNG seed")
		workers   = fs.Int("workers", 0, "evaluation-engine worker pool (>= 0; 0 = GOMAXPROCS, 1 = serial; results are identical)")
		eps       = fs.Float64("eps", 0, "Pareto archive ε-grid resolution for -exp pareto (>= 0; 0 = exact front)")
		csvDir    = fs.String("csv", "", "also write <experiment>.csv files into this directory")
		addr      = fs.String("addr", "", "for -exp service: fire the load generator at a live spmapd base URL instead of in-process services")
		jsonPath  = fs.String("json", "", "for -exp service/fleet: also write the result rows as JSON to this file")
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
	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "table1"}
	}
	hasService, hasFleet, hasCertify := false, false, false
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if !knownExperiments[names[i]] {
			return usage("unknown experiment %q", names[i])
		}
		hasService = hasService || names[i] == "service"
		hasFleet = hasFleet || names[i] == "fleet"
		hasCertify = hasCertify || names[i] == "certify"
	}
	if *addr != "" && !hasService {
		return usage("-addr applies to -exp service only")
	}
	if *jsonPath != "" && !hasService && !hasFleet && !hasCertify {
		return usage("-json applies to -exp service, fleet and certify only")
	}
	if *storeDir != "" && !hasFleet {
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

	cfg := experiments.Config{
		Paper:          *paper,
		GraphsPerPoint: *graphs,
		Schedules:      *schedules,
		GAGenerations:  *gaGens,
		MILPTimeLimit:  *milpBudg,
		Seed:           *seed,
		Workers:        *workers,
	}
	emitCSV := func(name string, write func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		path := filepath.Join(*csvDir, name+".csv")
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
	emit := func(t *experiments.Table) error {
		t.Print(stdout)
		return emitCSV(t.ID, t.WriteCSV)
	}
	for _, name := range names {
		start := time.Now()
		var err error
		switch name {
		case "fig3":
			err = emit(experiments.Fig3(cfg))
		case "fig4":
			err = emit(experiments.Fig4(cfg))
		case "fig5":
			err = emit(experiments.Fig5(cfg))
		case "fig6":
			err = emit(experiments.Fig6(cfg))
		case "fig7":
			err = emit(experiments.Fig7(cfg))
		case "table1":
			rows := experiments.Table1(cfg)
			experiments.PrintTable1(stdout, rows)
			err = emitCSV("table1", func(w io.Writer) error {
				return experiments.WriteCSVTable1(w, rows)
			})
		case "ablation":
			if err = emit(experiments.CutPolicyAblation(cfg)); err != nil {
				break
			}
			fmt.Fprintln(stdout)
			if err = emit(experiments.GammaAblation(cfg)); err != nil {
				break
			}
			fmt.Fprintln(stdout)
			err = emit(experiments.ScheduleCountAblation(cfg))
		case "localsearch":
			err = emit(experiments.LocalSearchComparison(cfg))
		case "portfolio":
			err = emit(experiments.PortfolioComparison(cfg))
		case "online":
			err = emit(experiments.OnlineComparison(cfg))
		case "incremental":
			rows := experiments.IncrementalComparison(cfg)
			experiments.PrintIncremental(stdout, rows)
			err = emitCSV("incremental", func(w io.Writer) error {
				return experiments.WriteCSVIncremental(w, rows)
			})
		case "service":
			rows := experiments.ServiceLoad(cfg, *addr)
			experiments.PrintService(stdout, rows)
			err = emitCSV("service", func(w io.Writer) error {
				return experiments.WriteCSVService(w, rows)
			})
			if err == nil && *jsonPath != "" {
				var f *os.File
				if f, err = os.Create(*jsonPath); err == nil {
					err = experiments.WriteJSONService(f, rows)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
			}
		case "fleet":
			var rows []experiments.FleetRow
			rows, err = experiments.FleetComparison(cfg, *storeDir)
			if rows != nil {
				experiments.PrintFleet(stdout, rows)
			}
			if err != nil {
				// The resume-verification gate failed (or the store is
				// unusable): the printed rows are diagnostics, the run is
				// not a valid benchmark.
				return err
			}
			err = emitCSV("fleet", func(w io.Writer) error {
				return experiments.WriteCSVFleet(w, rows)
			})
			if err == nil && *jsonPath != "" {
				var f *os.File
				if f, err = os.Create(*jsonPath); err == nil {
					err = experiments.WriteJSONFleet(f, rows)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
			}
		case "certify":
			rows := experiments.CertifyComparison(cfg)
			experiments.PrintCertify(stdout, rows)
			err = emitCSV("certify", func(w io.Writer) error {
				return experiments.WriteCSVCertify(w, rows)
			})
			if err == nil && *jsonPath != "" {
				var f *os.File
				if f, err = os.Create(*jsonPath); err == nil {
					err = experiments.WriteJSONCertify(f, rows)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
			}
		case "pareto":
			rows := experiments.ParetoComparisonEps(cfg, *eps)
			experiments.PrintPareto(stdout, rows)
			err = emitCSV("pareto", func(w io.Writer) error {
				return experiments.WriteCSVPareto(w, rows)
			})
		case "robust":
			rows := experiments.RobustComparison(cfg)
			experiments.PrintRobust(stdout, rows)
			if err = emitCSV("robust", func(w io.Writer) error {
				return experiments.WriteCSVRobust(w, rows)
			}); err != nil {
				break
			}
			costs := experiments.RobustCost(cfg)
			experiments.PrintRobustCost(stdout, costs)
			err = emitCSV("robust_cost", func(w io.Writer) error {
				return experiments.WriteCSVRobustCost(w, costs)
			})
		default:
			// knownExperiments and this dispatch are maintained together; a
			// name validated above but not dispatched here is a programming
			// error, not a user error.
			return fmt.Errorf("internal error: experiment %q validated but not dispatched", name)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if memProfFile != nil {
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(memProfFile); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}
