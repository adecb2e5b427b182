package experiments

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"spmap/internal/eval"
	"spmap/internal/gen"
	"spmap/internal/mappers/ga"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/pareto"
	"spmap/internal/platform"
)

// The robust experiment evaluates the uncertainty-aware objective
// (PR 9) on degrade-heavy scenario families: a nominal mapper (a
// single-objective makespan GA — the classic baseline, which
// concentrates work on the nominally fastest devices) and a robust
// mapper (the three-objective NSGA-II front whose third objective is
// the p95 makespan across Monte-Carlo perturbed cost worlds, with the
// deployed mapping selected by re-ranking the front under a fresh,
// independent noise sample — out-of-sample selection avoids the
// optimizer's curse of picking a front point that merely overfits the
// in-loop samples). Both are compared on families of degraded platform
// worlds drawn from the scenario generator's DeviceDegrade
// distribution — the deployment regime the noise model abstracts. The
// robust mapping hedges against device-wide slowdowns, so its
// degraded-world tail (and typically mean) makespan beats the nominal
// mapping's on degrade-heavy families.

// RobustNoise is the experiment's noise model: common-mode per-device
// lognormal slowdowns dominate (matching DeviceDegrade's device-wide
// speed scaling), with equally strong transfer noise (DeviceDegrade
// also cuts device bandwidth, punishing transfer-heavy spreads).
var RobustNoise = eval.NoiseModel{
	Kind: eval.NoiseLognormal, DeviceSigma: 0.5,
	TransferSigma: 0.5, Seed: 7,
}

// RobustRow is one averaged data point of the robust-vs-nominal
// comparison: one degrade-heavy scenario family (Events degrade events
// per world).
type RobustRow struct {
	Tasks   int `json:"tasks"`
	Events  int `json:"events"`
	Samples int `json:"samples"`
	Worlds  int `json:"worlds"`
	// NominalMean/NominalTail and RobustMean/RobustTail are the mean and
	// p95 makespans of the two mappings across the degraded worlds,
	// averaged over the graph pool (normalized by the undegraded nominal
	// makespan of the nominal mapping, so 1.0 = no degradation impact).
	NominalMean float64 `json:"nominal_mean" fmt:"%.6f"`
	NominalTail float64 `json:"nominal_tail" fmt:"%.6f"`
	RobustMean  float64 `json:"robust_mean" fmt:"%.6f"`
	RobustTail  float64 `json:"robust_tail" fmt:"%.6f"`
	// TailImprovement and MeanImprovement are the average relative
	// improvements of the robust mapping over the nominal one under
	// degradation; Wins is the fraction of graphs where the robust
	// mapping's degraded tail is strictly better.
	TailImprovement float64 `json:"tail_improvement" fmt:"%.6f"`
	MeanImprovement float64 `json:"mean_improvement" fmt:"%.6f"`
	Wins            float64 `json:"wins" fmt:"%.3f"`
	TimeMS          float64 `json:"time_ms" fmt:"%.4f"`
}

// degradeWorlds draws one degrade-heavy scenario family: nWorlds
// platform copies, each degraded by the DeviceDegrade events of one
// generated pure-degrade scenario stream.
func degradeWorlds(rng *rand.Rand, p *platform.Platform, nWorlds, events int) []*platform.Platform {
	worlds := make([]*platform.Platform, nWorlds)
	for w := range worlds {
		sc := gen.NewScenario(rng, gen.ScenarioOptions{
			Events: events, Devices: p.NumDevices(), DefaultDevice: p.Default,
			PDegrade: 1,
		})
		devices := append([]platform.Device(nil), p.Devices...)
		for _, e := range sc.Events {
			if e.Kind != gen.DeviceDegrade {
				continue
			}
			devices[e.Device].PeakOps *= e.SpeedScale
			devices[e.Device].Bandwidth *= e.BandwidthScale
		}
		worlds[w] = &platform.Platform{Default: p.Default, Devices: devices}
	}
	return worlds
}

// worldStats returns the mean and p95 of m's makespan across the worlds
// (schedule set and seed matching the mapper's evaluator).
func worldStats(g *model.Evaluator, worlds []*platform.Platform, schedules int, seed int64, m mapping.Mapping) (mean, tail float64) {
	vals := make([]float64, len(worlds))
	for w, pw := range worlds {
		vals[w] = model.NewEvaluator(g.G, pw).WithSchedules(schedules, seed).Makespan(m)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	sort.Float64s(vals)
	qi := int(math.Ceil(0.95*float64(len(vals)))) - 1
	if qi < 0 {
		qi = 0
	}
	return sum / float64(len(vals)), vals[qi]
}

// selectRobust picks the deployed mapping from the three-objective
// front by re-ranking all front points under a fresh noise sample
// (independent seed, more samples): out-of-sample selection, so the
// pick does not reward overfitting the optimizer's in-loop samples.
func selectRobust(ev *model.Evaluator, front pareto.Front, samples, workers int) mapping.Mapping {
	selSamples := samples
	if selSamples < 40 {
		selSamples = 40
	}
	nm := RobustNoise
	nm.Seed ^= 0x5E3779B97F4A7C15
	sel, err := eval.NewRobustObjective(nm, selSamples, 0.9)
	if err != nil {
		panic(err)
	}
	eng := ev.Engine()
	if workers > 0 {
		eng = eng.WithWorkers(workers)
	}
	ops := make([]eval.Op, len(front))
	for i, pt := range front {
		ops[i] = eval.Op{Base: pt.Mapping}
	}
	scores := make([]float64, len(ops))
	sel.Batch(eng, ops, math.Inf(1), scores)
	best := 0
	for i, s := range scores {
		if s < scores[best] {
			best = i
		}
	}
	return front[best].Mapping
}

// RobustComparison sweeps degrade-event families and returns one row
// per family; the robust mapper draws 16 Monte-Carlo samples per
// candidate.
func RobustComparison(cfg Config) []RobustRow {
	const samples = 16
	families := []int{4}
	if cfg.Paper {
		families = []int{1, 2, 4, 8}
	}
	const n, nWorlds = 30, 40
	p := cfg.platform()
	rows := make([]RobustRow, 0, len(families))
	for _, events := range families {
		row := RobustRow{Tasks: n, Events: events, Samples: samples, Worlds: nWorlds}
		count := cfg.graphs()
		for gi := 0; gi < count; gi++ {
			seed := cfg.Seed + int64(gi)*7919
			rng := rand.New(rand.NewSource(seed))
			g := gen.SeriesParallel(rng, n, gen.DefaultAttr())
			ev := model.NewEvaluator(g, p).WithSchedules(cfg.schedules(), seed+1)
			worlds := degradeWorlds(rng, p, nWorlds, events)

			t0 := time.Now()
			// Equal candidate budgets; the robust run additionally pays
			// samples perturbed simulations per candidate.
			nominal, _ := ga.MapWithEvaluator(ev, ga.Options{
				Population: 16, Generations: 25, Seed: seed,
				Workers: cfg.Workers,
			})
			robustObj, err := eval.NewRobustObjective(RobustNoise, samples, 0.9)
			if err != nil {
				panic(err)
			}
			robFront, _ := ga.MapParetoWithEvaluator(ev, ga.ParetoOptions{
				Population: 16, Generations: 25, Seed: seed,
				Workers: cfg.Workers,
				Objectives: []eval.Objective{
					eval.MakespanObjective(), eval.EnergyObjective(), robustObj,
				},
			})
			row.TimeMS += float64(time.Since(t0).Microseconds()) / 1000
			if len(nominal) == 0 || len(robFront) == 0 {
				continue
			}
			robust := selectRobust(ev, robFront, samples, cfg.Workers)

			base := ev.Makespan(nominal) // undegraded nominal reference
			if base <= 0 {
				continue
			}
			nMean, nTail := worldStats(ev, worlds, cfg.schedules(), seed+1, nominal)
			rMean, rTail := worldStats(ev, worlds, cfg.schedules(), seed+1, robust)
			row.NominalMean += nMean / base
			row.NominalTail += nTail / base
			row.RobustMean += rMean / base
			row.RobustTail += rTail / base
			if nTail > 0 {
				row.TailImprovement += (nTail - rTail) / nTail
			}
			if nMean > 0 {
				row.MeanImprovement += (nMean - rMean) / nMean
			}
			if rTail < nTail {
				row.Wins++
			}
		}
		c := float64(count)
		row.NominalMean /= c
		row.NominalTail /= c
		row.RobustMean /= c
		row.RobustTail /= c
		row.TailImprovement /= c
		row.MeanImprovement /= c
		row.Wins /= c
		row.TimeMS /= c
		rows = append(rows, row)
	}
	return rows
}

// RobustCostRow is one point of the Monte-Carlo batching cost sweep:
// the per-candidate evaluation cost of the robust objective as a
// function of the sample count, against the nominal single-simulation
// batch path.
type RobustCostRow struct {
	Samples int `json:"samples"`
	// BatchUS and NominalUS are per-candidate microseconds of the robust
	// and the plain makespan batch path at batch size 64.
	BatchUS   float64 `json:"robust_us" fmt:"%.2f"`
	NominalUS float64 `json:"nominal_us" fmt:"%.2f"`
	// Overhead is BatchUS / (NominalUS * Samples): 1.0 means the S-sample
	// robust pass costs exactly S nominal passes (no batching win), below
	// 1.0 the batch fan-out amortizes.
	Overhead float64 `json:"overhead" fmt:"%.4f"`
}

// RobustCost measures the robust objective's Monte-Carlo batching cost
// per sample count on one mid-size graph.
func RobustCost(cfg Config) []RobustCostRow {
	const n, batch = 50, 64
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := gen.SeriesParallel(rng, n, gen.DefaultAttr())
	ev := model.NewEvaluator(g, cfg.platform()).WithSchedules(cfg.schedules(), cfg.Seed)
	eng := ev.Engine()
	if cfg.Workers > 0 {
		eng = eng.WithWorkers(cfg.Workers)
	}
	ops := make([]eval.Op, batch)
	for i := range ops {
		m := make(mapping.Mapping, g.NumTasks())
		for v := range m {
			m[v] = rng.Intn(cfg.platform().NumDevices())
		}
		ops[i] = eval.Op{Base: m.Repair(g, cfg.platform())}
	}
	out := make([]float64, batch)

	nominalUS := func() float64 {
		t0 := time.Now()
		const reps = 5
		for r := 0; r < reps; r++ {
			eval.MakespanObjective().Batch(eng, ops, math.Inf(1), out)
		}
		return float64(time.Since(t0).Microseconds()) / float64(reps*batch)
	}()

	rows := make([]RobustCostRow, 0, 4)
	for _, s := range []int{4, 16, 64} {
		ro, err := eval.NewRobustObjective(RobustNoise, s, 0.95)
		if err != nil {
			panic(err)
		}
		ro.Batch(eng, ops, math.Inf(1), out) // warm: compile sample engines
		t0 := time.Now()
		ro.Batch(eng, ops, math.Inf(1), out)
		us := float64(time.Since(t0).Microseconds()) / batch
		over := 0.0
		if nominalUS > 0 {
			over = us / (nominalUS * float64(s))
		}
		rows = append(rows, RobustCostRow{
			Samples: s, BatchUS: us, NominalUS: nominalUS, Overhead: over,
		})
	}
	return rows
}
