package localsearch

import (
	"math"

	"spmap/internal/eval"
	"spmap/internal/graph"
	"spmap/internal/model"
)

// acceptTailFactor bounds how far above the incumbent an annealing
// proposal is still evaluated exactly: at delta = acceptTailFactor x T
// the Metropolis acceptance probability is exp(-acceptTailFactor)
// (~2e-9), so proposals the engine rejects at that cutoff (a larger
// delta) are rejected outright without an RNG draw.
const acceptTailFactor = 20

// Proposal mix: with probability subMoveProb a subgraph co-move (one of
// the paper's §III-C series-parallel sets onto one device), with
// probability edgeMoveProb an edge co-move (both endpoints of a random
// edge onto one device), otherwise a single-task move. Co-moves cross
// the plateaus around streaming chains where no single move improves.
const (
	subMoveProb  = 0.25
	edgeMoveProb = 0.25
)

// Annealing schedule: proposals are evaluated in blocks of annealBatch
// (a larger block discards more stale proposals after an accepted
// move), and the temperature cools from initialTemp to finalTemp, both
// fractions of the starting objective value.
const (
	annealBatch = 8
	initialTemp = 0.02
	finalTemp   = 1e-4
)

// anneal runs batched simulated annealing over single-task moves, edge
// co-moves and series-parallel subgraph co-moves.
//
// Proposals are drawn in blocks of annealBatch on the calling goroutine
// (fixing the RNG stream), evaluated against one cutoff — through the
// incremental session in single-objective mode, where every candidate
// resumes at its first patched position against the incumbent's
// recording, and as one engine batch in weighted mode — and then
// scanned in index order under Metropolis acceptance. An
// accepted move invalidates the rest of the block (the incumbent
// changed), so those results are discarded; the temperature follows a
// geometric schedule paced by the fraction of the evaluation budget
// spent.
func (s *searcher) anneal() {
	// Temperatures scale with the starting objective value (the makespan,
	// or the normalized cost in weighted mode) so the schedule is
	// problem-size independent.
	t0 := initialTemp * s.startVal
	tEnd := finalTemp * s.startVal
	logRatio := math.Log(tEnd / t0)

	ops := make([]eval.Op, annealBatch)
	patches := make([]graph.NodeID, annealBatch)
	for {
		remaining := s.opt.Budget - s.stats.Evaluations
		if remaining <= 0 {
			return
		}
		// Shrink the final block to the remaining budget.
		batch := annealBatch
		if remaining < batch {
			batch = remaining
		}
		// Cooling is paced by budget consumption: T = t0 * (tEnd/t0)^frac.
		// An elite adoption resets schedStart (see maybeSync), so the
		// schedule restarts over whatever budget remains; without a Sync
		// hook schedStart is 0 and the pacing is the classic one.
		frac := float64(s.stats.Evaluations-s.schedStart) / float64(s.opt.Budget-s.schedStart)
		temp := t0 * math.Exp(frac*logRatio)

		for i := 0; i < batch; i++ {
			switch r := s.rng.Float64(); {
			case r < subMoveProb && len(s.subs) > 0:
				sub := s.subs[s.rng.Intn(len(s.subs))]
				d := s.rng.Intn(s.nd)
				if !changes(s.cur, sub, d) {
					d = (d + 1) % s.nd // make the co-move change something
				}
				ops[i] = eval.Op{Base: s.cur, Patch: sub, Device: d}
			case r < subMoveProb+edgeMoveProb && len(s.edges) > 0:
				e := s.rng.Intn(len(s.edges))
				d := s.rng.Intn(s.nd)
				if u, w := s.edges[e][0], s.edges[e][1]; s.cur[u] == d && s.cur[w] == d {
					d = (d + 1) % s.nd
				}
				ops[i] = eval.Op{Base: s.cur, Patch: s.edges[e][:], Device: d}
			default:
				v := s.rng.Intn(s.n)
				d := s.rng.Intn(s.nd - 1)
				if d >= s.cur[v] {
					d++ // uniform over the other devices
				}
				patches[i] = graph.NodeID(v)
				ops[i] = eval.Op{Base: s.cur, Patch: patches[i : i+1], Device: d}
			}
		}
		// Results at or below the cutoff are exact; a candidate beyond the
		// acceptance tail comes back as the rejection value, above the
		// cutoff, and is rejected without needing its exact value.
		cutoff := s.curVal + acceptTailFactor*temp
		res := s.evalBatch(ops[:batch], cutoff)
		s.stats.Evaluations += batch
		for i, val := range res {
			if val == model.Infeasible || val > cutoff {
				continue // reject: infeasible or beyond the acceptance tail
			}
			accept := val <= s.curVal
			if !accept {
				accept = s.rng.Float64() < math.Exp((s.curVal-val)/temp)
			}
			if accept {
				for _, v := range ops[i].Patch {
					s.cur[v] = ops[i].Device
				}
				if !s.mo {
					// Fold the move into the session recording in place
					// (no re-recording).
					s.inc.Apply(ops[i].Patch, ops[i].Device)
				}
				s.moveTo(i, val)
				// The incumbent changed: the remaining results of this
				// block were evaluated against a stale base. Discard them
				// and draw a fresh block.
				break
			}
		}
		// Elite restart: once the walk has drifted beyond the Metropolis
		// acceptance tail above the best-seen mapping, the probability of
		// returning below it is negligible (every step back down carries
		// at most the tail's acceptance mass), so resume from the elite
		// instead of cooling into a worse valley.
		if s.curVal-s.bestVal > acceptTailFactor*temp {
			copy(s.cur, s.best)
			if !s.mo {
				s.inc.Rebase(s.cur)
			}
			s.curVal = s.bestVal
			s.curMS, s.curEn = s.bestMS, s.bestEn
		}
		// Coordination rendezvous at the block boundary (portfolio racing).
		if s.maybeSync() {
			return
		}
	}
}
