package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
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
//   - incremental: the session path — fast-forwarded bounded replays
//     against a persistent recording that accepted moves repair in
//     place instead of re-recording (Engine.Incremental).
//
// Both must return bit-identical values at or below the cutoff and
// therefore accept exactly the same moves; the experiment panics on any
// divergence, making every throughput row a correctness check too. Reported throughput is candidate evaluations per second
// including the cost of committing accepted moves.

// IncrementalRow is one (graph size, strategy) measurement.
type IncrementalRow struct {
	Tasks         int
	Mode          string
	Moves         int     // candidate evaluations performed
	Accepted      int     // moves accepted (identical across modes)
	TimeMS        float64 // wall time of the whole sequence
	MovesPerSec   float64
	SpeedupVsFull float64
	Makespan      float64 // final incumbent makespan (identical across modes)
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
		type result struct {
			accepted int
			final    float64
		}
		run := func(mode string, base mapping.Mapping, evalMove func(base mapping.Mapping, mv moveSeq, cutoff float64) float64,
			apply func(base mapping.Mapping, mv moveSeq)) (IncrementalRow, result) {
			cur := eng.Makespan(base)
			var res result
			t0 := time.Now()
			for _, mv := range moves {
				val := evalMove(base, mv, cur)
				if val < cur {
					apply(base, mv)
					cur = val
					res.accepted++
				}
			}
			el := time.Since(t0)
			res.final = cur
			row := IncrementalRow{
				Tasks: n, Mode: mode,
				Moves: len(moves), Accepted: res.accepted,
				TimeMS:      float64(el.Microseconds()) / 1000,
				MovesPerSec: float64(len(moves)) / el.Seconds(),
				Makespan:    cur,
			}
			return row, res
		}

		// Full replay: the candidate is materialized and simulated from an
		// empty schedule.
		cand := mapping.Baseline(g, p)
		fullRow, fullRes := run("full", mapping.Baseline(g, p),
			func(base mapping.Mapping, mv moveSeq, cutoff float64) float64 {
				copy(cand, base)
				cand.Assign(mv.patch, mv.device)
				return eng.MakespanCutoff(cand, cutoff)
			},
			func(base mapping.Mapping, mv moveSeq) { base.Assign(mv.patch, mv.device) })

		// Incremental session: persistent recording, in-place repair.
		inc := eng.Incremental(mapping.Baseline(g, p), nil)
		incRow, incRes := run("incremental", mapping.Baseline(g, p),
			func(base mapping.Mapping, mv moveSeq, cutoff float64) float64 {
				return inc.Evaluate(mv.patch, mv.device, cutoff)
			},
			func(base mapping.Mapping, mv moveSeq) { inc.Apply(mv.patch, mv.device) })
		inc.Close()

		// Differential gate: identical decisions and bit-identical exact
		// values, or the run is worthless as a benchmark. Session values
		// above the cutoff are certified lower bounds, not exact
		// makespans, so only sub-cutoff values are comparable — the
		// accepted/final check covers those.
		if incRes.accepted != fullRes.accepted || incRes.final != fullRes.final {
			panic(fmt.Sprintf("incremental experiment: mode diverged at n=%d: accepted %d/%d final %v/%v",
				n, incRes.accepted, fullRes.accepted, incRes.final, fullRes.final))
		}

		fullRow.SpeedupVsFull = 1
		incRow.SpeedupVsFull = fullRow.TimeMS / incRow.TimeMS
		rows = append(rows, fullRow, incRow)
	}
	return rows
}

// WriteCSVIncremental emits the move-throughput comparison in long form.
func WriteCSVIncremental(w io.Writer, rows []IncrementalRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"tasks", "mode", "moves", "accepted", "time_ms", "moves_per_sec", "speedup_vs_full", "makespan"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			fmt.Sprint(r.Tasks), r.Mode, fmt.Sprint(r.Moves), fmt.Sprint(r.Accepted),
			fmt.Sprintf("%.4f", r.TimeMS),
			fmt.Sprintf("%.1f", r.MovesPerSec),
			fmt.Sprintf("%.3f", r.SpeedupVsFull),
			fmt.Sprintf("%.6f", r.Makespan),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// PrintIncremental renders the move-throughput comparison.
func PrintIncremental(w io.Writer, rows []IncrementalRow) {
	fmt.Fprintf(w, "# incremental — local-search move throughput (single worker, shared move sequence)\n\n")
	fmt.Fprintf(w, "%-6s %-12s %8s %9s %10s %12s %9s\n",
		"tasks", "mode", "moves", "accepted", "time_ms", "moves/sec", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %-12s %8d %9d %10.1f %12.0f %8.1fx\n",
			r.Tasks, r.Mode, r.Moves, r.Accepted, r.TimeMS, r.MovesPerSec, r.SpeedupVsFull)
	}
}
