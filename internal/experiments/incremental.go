package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
)

// The incremental experiment measures what the incremental evaluation
// path exists for: local-search move throughput. One deterministic
// first-improvement move sequence per graph size is replayed through
// the engine's two ways of scoring a move —
//
//   - full: every candidate is materialized as a whole mapping and
//     replays every schedule order from position zero (a whole-mapping
//     evaluation never resumes from a recorded prefix);
//   - incremental: the session path — bounded replays resumed at the
//     first patched position of a persistent recording that accepted
//     moves repair in place instead of re-recording
//     (Engine.Incremental).
//
// Both must return a bit-identical value for every move — the exact
// makespan at or below the cutoff, the engine's rejection value above it
// — and therefore accept exactly the same moves; the experiment panics
// on any divergence, making every throughput row a correctness check
// too. Reported throughput is candidate evaluations per second including
// the cost of committing accepted moves.

// IncrementalRow is one (graph size, strategy) measurement.
type IncrementalRow struct {
	Tasks int    `json:"tasks"`
	Mode  string `json:"mode"`
	// Moves counts candidate evaluations; Accepted and Makespan (the
	// final incumbent's) are identical across modes.
	Moves         int     `json:"moves"`
	Accepted      int     `json:"accepted"`
	TimeMS        float64 `json:"time_ms" fmt:"%.4f"` // wall time of the whole sequence
	MovesPerSec   float64 `json:"moves_per_sec" fmt:"%.1f"`
	SpeedupVsFull float64 `json:"speedup_vs_full" fmt:"%.3f"`
	Makespan      float64 `json:"makespan" fmt:"%.6f"`
}

// incrementalMoves is the per-size move budget of the comparison.
func (c Config) incrementalMoves() int {
	if c.Paper {
		return 5100 // the local-search benchmark protocol's equal budget
	}
	return 1500
}

// moveSeq is one deterministic candidate move.
type moveSeq struct {
	patch  []graph.NodeID
	device int
}

// IncrementalComparison runs the move-throughput comparison at
// n = {50, 100, 250} (quick profile: {50, 100}).
func IncrementalComparison(cfg Config) []IncrementalRow {
	sizes := []int{50, 100, 250}
	if !cfg.Paper && cfg.GraphsPerPoint == 0 {
		// The 250-task point dominates quick-profile runtime through the
		// full-replay arm alone; keep it for -paper and explicit runs.
		sizes = []int{50, 100}
	}
	p := cfg.platform()
	var rows []IncrementalRow
	for _, n := range sizes {
		seed := cfg.Seed*7919 + int64(n)
		rng := rand.New(rand.NewSource(seed))
		g := gen.SeriesParallel(rng, n, gen.DefaultAttr())
		ev := model.NewEvaluator(g, p).WithSchedules(cfg.schedules(), seed+1)
		nd := p.NumDevices()

		// One shared move sequence: single-task moves plus occasional
		// edge co-moves (two tasks onto one device in a single patch).
		moves := make([]moveSeq, cfg.incrementalMoves())
		for i := range moves {
			v := graph.NodeID(rng.Intn(n))
			patch := []graph.NodeID{v}
			if ie := g.InEdges(v); len(ie) > 0 && rng.Intn(8) == 0 {
				patch = append(patch, g.Edge(ie[rng.Intn(len(ie))]).From)
			}
			moves[i] = moveSeq{patch: patch, device: rng.Intn(nd)}
		}

		eng := ev.Engine().WithWorkers(1)
		// run replays the move sequence and returns the row and every
		// move's value.
		run := func(mode string, base mapping.Mapping, evalMove func(base mapping.Mapping, mv moveSeq, cutoff float64) float64,
			apply func(base mapping.Mapping, mv moveSeq)) (IncrementalRow, []float64) {
			cur := eng.Makespan(base)
			vals := make([]float64, len(moves))
			accepted := 0
			t0 := time.Now()
			for i, mv := range moves {
				val := evalMove(base, mv, cur)
				vals[i] = val
				if val < cur {
					apply(base, mv)
					cur = val
					accepted++
				}
			}
			el := time.Since(t0)
			row := IncrementalRow{
				Tasks: n, Mode: mode,
				Moves: len(moves), Accepted: accepted,
				TimeMS:      float64(el.Microseconds()) / 1000,
				MovesPerSec: float64(len(moves)) / el.Seconds(),
				Makespan:    cur,
			}
			return row, vals
		}

		// Full replay: the candidate is materialized and simulated from an
		// empty schedule.
		cand := mapping.Baseline(g, p)
		fullRow, fullVals := run("full", mapping.Baseline(g, p),
			func(base mapping.Mapping, mv moveSeq, cutoff float64) float64 {
				copy(cand, base)
				cand.Assign(mv.patch, mv.device)
				return eng.MakespanCutoff(cand, cutoff)
			},
			func(base mapping.Mapping, mv moveSeq) { base.Assign(mv.patch, mv.device) })

		// Incremental session: persistent recording, in-place repair.
		inc := eng.Incremental(mapping.Baseline(g, p), nil)
		incRow, incVals := run("incremental", mapping.Baseline(g, p),
			func(base mapping.Mapping, mv moveSeq, cutoff float64) float64 {
				return inc.Evaluate(mv.patch, mv.device, cutoff)
			},
			func(base mapping.Mapping, mv moveSeq) { inc.Apply(mv.patch, mv.device) })
		inc.Close()

		// Differential gate: every move's value, rejections included, is
		// bit-identical across the modes (hence so are their decisions),
		// or the run is worthless as a benchmark.
		for i := range moves {
			if math.Float64bits(incVals[i]) != math.Float64bits(fullVals[i]) {
				panic(fmt.Sprintf("incremental experiment: mode diverged at n=%d move %d: full %v, incremental %v",
					n, i, fullVals[i], incVals[i]))
			}
		}

		fullRow.SpeedupVsFull = 1
		incRow.SpeedupVsFull = fullRow.TimeMS / incRow.TimeMS
		rows = append(rows, fullRow, incRow)
	}
	return rows
}
