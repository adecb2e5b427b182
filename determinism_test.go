package spmap_test

// Determinism matrix: every mapper, run with a fixed seed, must produce
// an identical mapping and identical stats across repeated runs and
// across engine worker counts. This is the contract that makes the
// batch engine safe to put under every mapper: EvaluateBatch results
// are index-aligned and all random draws happen on the calling
// goroutine, so parallelism must never leak into results.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spmap/internal/eval"
	"spmap/internal/gen"
	"spmap/internal/mappers/decomp"
	"spmap/internal/mappers/ga"
	"spmap/internal/mappers/heft"
	"spmap/internal/mappers/localsearch"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/online"
	"spmap/internal/pareto"
	"spmap/internal/platform"
	"spmap/internal/portfolio"
)

// frontFingerprint renders a Pareto front byte-exactly: per point the
// objective bit patterns plus the mapping digits.
func frontFingerprint(f pareto.Front) string {
	s := ""
	for _, p := range f {
		s += "("
		for _, v := range p.Vec {
			s += fmt.Sprintf("%016x,", math.Float64bits(v))
		}
		s += mappingString(p.Mapping) + ")"
	}
	return s
}

// determinismResult fingerprints one mapper run: the mapping plus a
// stats rendering (fmt-formatted so new stats fields are picked up
// automatically).
type determinismResult struct {
	mapping string
	stats   string
}

func TestMapperDeterminismMatrix(t *testing.T) {
	const seed = 42
	p := platform.Reference()
	rng := rand.New(rand.NewSource(3))
	g := gen.AlmostSeriesParallel(rng, 35, 12, gen.DefaultAttr()) // non-SP: exercises cuts too
	newEval := func() *model.Evaluator {
		return model.NewEvaluator(g, p).WithSchedules(8, seed)
	}

	cases := []struct {
		name string
		run  func(ev *model.Evaluator, workers int) determinismResult
	}{
		{"decomp/SingleNode/Basic", func(ev *model.Evaluator, workers int) determinismResult {
			m, st, err := decomp.MapWithEvaluator(ev, decomp.Options{
				Strategy: decomp.SingleNode, Heuristic: decomp.Basic, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st)}
		}},
		{"decomp/SeriesParallel/Basic", func(ev *model.Evaluator, workers int) determinismResult {
			m, st, err := decomp.MapWithEvaluator(ev, decomp.Options{
				Strategy: decomp.SeriesParallel, Heuristic: decomp.Basic, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st)}
		}},
		{"decomp/SeriesParallel/FirstFit", func(ev *model.Evaluator, workers int) determinismResult {
			m, st, err := decomp.MapWithEvaluator(ev, decomp.Options{
				Strategy: decomp.SeriesParallel, Heuristic: decomp.FirstFit, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st)}
		}},
		{"decomp/SeriesParallel/Gamma2", func(ev *model.Evaluator, workers int) determinismResult {
			m, st, err := decomp.MapWithEvaluator(ev, decomp.Options{
				Strategy: decomp.SeriesParallel, Heuristic: decomp.GammaThreshold, Gamma: 2, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st)}
		}},
		{"heft/HEFT", func(ev *model.Evaluator, workers int) determinismResult {
			return determinismResult{mappingString(heft.MapWithEvaluator(ev, heft.HEFT)), ""}
		}},
		{"heft/PEFT", func(ev *model.Evaluator, workers int) determinismResult {
			return determinismResult{mappingString(heft.MapWithEvaluator(ev, heft.PEFT)), ""}
		}},
		{"ga/NSGAII", func(ev *model.Evaluator, workers int) determinismResult {
			m, st := ga.MapWithEvaluator(ev, ga.Options{Generations: 12, Seed: seed, Workers: workers})
			// BestPerGeneration is a slice; include it via %+v too.
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st)}
		}},
		{"localsearch/Anneal", func(ev *model.Evaluator, workers int) determinismResult {
			m, st, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
				Algorithm: localsearch.Anneal, Seed: seed, Workers: workers, Budget: 1500,
			})
			if err != nil {
				t.Fatal(err)
			}
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st)}
		}},
		{"localsearch/HillClimb", func(ev *model.Evaluator, workers int) determinismResult {
			m, st, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
				Algorithm: localsearch.HillClimb, Seed: seed, Workers: workers, Budget: 1500,
			})
			if err != nil {
				t.Fatal(err)
			}
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st)}
		}},
		{"localsearch/Refine(HEFT)", func(ev *model.Evaluator, workers int) determinismResult {
			m, st, err := localsearch.Refine(ev, heft.MapWithEvaluator(ev, heft.HEFT), localsearch.Options{
				Seed: seed, Workers: workers, Budget: 1200,
			})
			if err != nil {
				t.Fatal(err)
			}
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st)}
		}},
		// Multi-objective mappers: the mapping under test is the front's
		// min-makespan point; the stats fingerprint pins the whole front
		// (objective bit patterns + mappings) plus the driver stats, so
		// any worker-count or rerun divergence anywhere on the front
		// fails the matrix.
		{"localsearch/AnnealWeighted", func(ev *model.Evaluator, workers int) determinismResult {
			m, st, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
				Algorithm: localsearch.Anneal, Seed: seed, Workers: workers, Budget: 1200,
				WTime: 0.5, WEnergy: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st)}
		}},
		{"localsearch/HillClimbEnergy", func(ev *model.Evaluator, workers int) determinismResult {
			m, st, err := localsearch.MapWithEvaluator(ev, localsearch.Options{
				Algorithm: localsearch.HillClimb, Seed: seed, Workers: workers, Budget: 1200,
				WTime: 0, WEnergy: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st)}
		}},
		{"pareto/Sweep", func(ev *model.Evaluator, workers int) determinismResult {
			front, st, err := pareto.WeightedSweep(ev, pareto.SweepOptions{
				Seed: seed, Workers: workers, Budget: 400,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(front) == 0 {
				t.Fatal("empty front")
			}
			return determinismResult{
				mappingString(front.MinMakespan().Mapping),
				fmt.Sprintf("%+v|%s", st, frontFingerprint(front)),
			}
		}},
		// The portfolio races all members on real goroutines with the
		// shared evaluation cache; mapping and all deterministic stats
		// (cache telemetry excluded — it is wall-clock-dependent by
		// design and zeroed by Deterministic) must be byte-identical.
		{"portfolio", func(ev *model.Evaluator, workers int) determinismResult {
			m, st, err := portfolio.MapWithEvaluator(ev, portfolio.Options{
				Seed: seed, Workers: workers, Budget: 2400,
			})
			if err != nil {
				t.Fatal(err)
			}
			return determinismResult{mappingString(m), fmt.Sprintf("%+v", st.Deterministic())}
		}},
		// Online replay: a mixed scenario (arrival, degradation, failure,
		// departure) replayed on the shared instance. The stats fingerprint
		// is the full byte-exact replay trace; the case itself additionally
		// pins cache on == cache off, so the matrix covers the contract's
		// whole (Workers x cache) grid. The scenario ends balanced (the
		// arrival departs again), so the final mapping validates against
		// the matrix's original graph.
		{"online/Replay", func(ev *model.Evaluator, workers int) determinismResult {
			sc := gen.Scenario{Events: []gen.Event{
				{Time: 1, Kind: gen.TaskArrive, Tasks: 5, Seed: 11},
				{Time: 2, Kind: gen.DeviceDegrade, Device: 1, SpeedScale: 0.6, BandwidthScale: 0.8},
				{Time: 3, Kind: gen.DeviceFail, Device: 2},
				{Time: 4, Kind: gen.TaskDepart, Arrival: 0},
			}}
			var m mapping.Mapping
			var trace string
			for _, disableCache := range []bool{false, true} {
				mm, st, err := online.Replay(g, p, sc, online.Options{
					Schedules: 5, Seed: seed, RepairBudget: 600,
					Workers: workers, DisableCache: disableCache,
				})
				if err != nil {
					t.Fatal(err)
				}
				if tr := st.Trace(); trace == "" {
					m, trace = mm, tr
				} else if tr != trace {
					t.Fatalf("replay trace diverged between cache on and off:\n%s\nvs\n%s", trace, tr)
				}
			}
			return determinismResult{mappingString(m), trace}
		}},
		{"ga/NSGA2Pareto", func(ev *model.Evaluator, workers int) determinismResult {
			front, st := ga.MapParetoWithEvaluator(ev, ga.ParetoOptions{
				Population: 16, Generations: 8, Seed: seed, Workers: workers,
			})
			if len(front) == 0 {
				t.Fatal("empty front")
			}
			return determinismResult{
				mappingString(front.MinMakespan().Mapping),
				fmt.Sprintf("%+v|%s", st, frontFingerprint(front)),
			}
		}},
		// The robust (-objective robust) driver: three-objective NSGA-II
		// with the Monte-Carlo tail makespan. The case itself additionally
		// pins cache on == cache off (the robust objective bypasses the
		// cache, the nominal columns honor its exactness contract), so the
		// matrix covers the full (Workers x cache x rerun) grid at one
		// fixed seed.
		{"ga/NSGA2ParetoRobust", func(ev *model.Evaluator, workers int) determinismResult {
			robust, err := eval.NewRobustObjective(eval.NoiseModel{
				Kind: eval.NoiseLognormal, ExecSigma: 0.2, DeviceSigma: 0.1,
				TransferSigma: 0.15, Seed: 7,
			}, 6, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			objs := []eval.Objective{eval.MakespanObjective(), eval.EnergyObjective(), robust}
			var res determinismResult
			for i, withCache := range []bool{false, true} {
				e := ev
				if withCache {
					e = ev.Clone().WithEngine(ev.Engine().WithCache(eval.NewCache()))
				}
				front, st := ga.MapParetoWithEvaluator(e, ga.ParetoOptions{
					Population: 12, Generations: 5, Seed: seed, Workers: workers,
					Objectives: objs,
				})
				if len(front) == 0 {
					t.Fatal("empty front")
				}
				got := determinismResult{
					mappingString(front.MinMakespan().Mapping),
					fmt.Sprintf("%+v|%s", st, frontFingerprint(front)),
				}
				if i == 0 {
					res = got
				} else if got != res {
					t.Fatalf("robust front diverged between cache off and on:\n%+v\nvs\n%+v", res, got)
				}
			}
			return res
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref determinismResult
			first := true
			for _, workers := range []int{1, 4} {
				for run := 0; run < 2; run++ {
					// A fresh evaluator per run: engine compilation and any
					// internal caching must not influence results either.
					got := tc.run(newEval(), workers)
					if first {
						ref = got
						first = false
						continue
					}
					if got.mapping != ref.mapping {
						t.Fatalf("workers=%d run=%d: mapping diverged\n got %s\nwant %s",
							workers, run, got.mapping, ref.mapping)
					}
					if got.stats != ref.stats {
						t.Fatalf("workers=%d run=%d: stats diverged\n got %s\nwant %s",
							workers, run, got.stats, ref.stats)
					}
				}
			}
			// The mapping must be valid and area-feasible on top of stable.
			m := make(mapping.Mapping, g.NumTasks())
			for i, c := range ref.mapping {
				m[i] = int(c - '0')
			}
			if err := m.Validate(g, p); err != nil {
				t.Fatal(err)
			}
			if !m.Feasible(g, p) {
				t.Fatalf("mapping violates device area capacities: %s", ref.mapping)
			}
		})
	}
}
