package localsearch

import (
	"spmap/internal/eval"
	"spmap/internal/graph"
	"spmap/internal/model"
)

// hillClimb runs batched steepest-descent with iterated-local-search
// kicks.
//
// Each step evaluates the complete large neighborhood of the incumbent
// with the incumbent as cutoff: every single-task move (task x other
// device), every edge co-move (both endpoints of an edge onto one
// device — the move that escapes the streaming plateaus single moves
// cannot cross) and every subgraph co-move. Every candidate resumes at
// its first patched position against the incumbent's recording (the
// incremental session, or the batch's shared prefix in weighted mode),
// and non-improving candidates abort after a few placed tasks. The best
// improving move (lowest makespan, lowest index on ties) is applied. At
// a local optimum the climber remaps max(2, n/16) random tasks of the
// best-seen mapping (iterated local search restarts from the elite),
// repairs feasibility, and climbs again; the best mapping across all
// climbs is returned.
func (s *searcher) hillClimb() {
	kick := max(2, s.n/16)

	// The candidate set is rebuilt each step (the incumbent's devices
	// change), but the op and patch storage is reused.
	ops := make([]eval.Op, 0, s.n*(s.nd-1)+len(s.edges)*s.nd)
	patches := make([]graph.NodeID, s.n)
	for v := range patches {
		patches[v] = graph.NodeID(v)
	}
	for {
		// Coordination rendezvous at the step boundary (portfolio racing).
		if s.maybeSync() {
			return
		}
		ops = ops[:0]
		for v := 0; v < s.n; v++ {
			for d := 0; d < s.nd; d++ {
				if d == s.cur[v] {
					continue
				}
				ops = append(ops, eval.Op{Base: s.cur, Patch: patches[v : v+1], Device: d})
			}
		}
		for ei := range s.edges {
			u, w := s.edges[ei][0], s.edges[ei][1]
			for d := 0; d < s.nd; d++ {
				if s.cur[u] == d && s.cur[w] == d {
					continue
				}
				ops = append(ops, eval.Op{Base: s.cur, Patch: s.edges[ei][:], Device: d})
			}
		}
		for si := range s.subs {
			for d := 0; d < s.nd; d++ {
				if !changes(s.cur, s.subs[si], d) {
					continue
				}
				ops = append(ops, eval.Op{Base: s.cur, Patch: s.subs[si], Device: d})
			}
		}
		if s.stats.Evaluations+len(ops) > s.opt.Budget {
			return // an incomplete neighborhood scan would bias the argmin
		}
		// The incumbent is the cutoff: improving results are exact, the
		// rest abort early and can never win the argmin below. The
		// session path additionally tightens the cutoff to the running
		// winner, which cannot change the argmin (see evalBatchMin).
		var res []float64
		if !s.mo {
			res = s.evalBatchMin(ops, s.curVal)
		} else {
			res = s.evalBatch(ops, s.curVal)
		}
		s.stats.Evaluations += len(ops)
		bestOp, bestVal := -1, s.curVal-s.curVal*improvementEps
		for i, val := range res {
			if val < bestVal {
				bestOp, bestVal = i, val
			}
		}
		if bestOp >= 0 {
			for _, v := range ops[bestOp].Patch {
				s.cur[v] = ops[bestOp].Device
			}
			if !s.mo {
				s.inc.Apply(ops[bestOp].Patch, ops[bestOp].Device)
			}
			s.moveTo(bestOp, bestVal)
			continue
		}
		// Local optimum: kick and re-climb if the budget allows another
		// full neighborhood scan on top of the kick evaluation. The kick
		// perturbs the best-seen mapping (iterated local search restarts
		// from the elite, not from wherever the last climb stalled).
		if s.stats.Evaluations+1+len(ops) > s.opt.Budget {
			return
		}
		copy(s.cur, s.best)
		for i := 0; i < kick; i++ {
			s.cur[s.rng.Intn(s.n)] = s.rng.Intn(s.nd)
		}
		s.cur.Repair(s.g, s.p)
		if s.mo {
			s.curMS = s.eng.Makespan(s.cur)
			s.curEn = s.eng.Energy(s.cur)
			s.curVal = s.cost(s.curMS, s.curEn)
		} else {
			// Kicks change many tasks at once: re-record rather than
			// rebase, and read the (bit-identical) makespan off the fresh
			// recording.
			s.inc.Rebase(s.cur)
			s.curVal = s.inc.Makespan()
			s.curMS = s.curVal
		}
		s.stats.Evaluations++
		s.stats.Kicks++
		if s.curVal == model.Infeasible {
			// Repair could not restore feasibility (it only moves tasks to
			// the default device); restart from the best-seen mapping.
			copy(s.cur, s.best)
			if !s.mo {
				s.inc.Rebase(s.cur)
			}
			s.curVal = s.bestVal
			s.curMS, s.curEn = s.bestMS, s.bestEn
		} else {
			s.observe()
		}
		s.record()
	}
}
