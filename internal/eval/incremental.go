package eval

import (
	"math"

	"spmap/internal/graph"
	"spmap/internal/mapping"
)

// This file implements the incremental evaluation path: order
// simulations resumed from a recording of the base mapping at a
// candidate's first patched position, bounds that reject over-cutoff
// candidates before or during that replay, and a long-lived session
// (Incremental) that keeps one such recording alive across a whole local
// search. Accepted moves do not re-record: Apply folds each one into
// every order's recording at once (commit — an in-place rebase of each
// order from its first moved position), so the recording always
// describes the session base exactly.
//
// A resumed replay restores the slot state and running makespan
// recorded at its resume position and replays the rest of the order with
// simOrder's placement arithmetic, so a completed replay is bit-identical
// to a full one. What it saves over a full replay is the prefix, and for
// the candidates a search rejects, whatever its bounds cut off: the
// candidate's critical path and preLB before the replay, then the path
// bound, the dominance abort and the running makespan during it (see
// makespanInc and simOrderInc). Every bound is deflated by loadSlack so
// float rounding can never push it above the true makespan: a bound
// above the cutoff proves the rejection, and the rejection is reported
// as rejected(cutoff) whichever bound proved it.

// loadSlack deflates the path and dominance lower bounds against float
// rounding: a bound's real-arithmetic value never exceeds the true
// makespan, and its floating-point evaluation deviates by at most ~n*eps
// (a sum or chain over at most n tasks) — orders of magnitude below
// 1e-9.
const loadSlack = 1 - 1e-9

// slotGap returns how far slot state a lags behind slot state b: the
// smallest E >= 0 such that, after pairing each device's interchangeable
// slots best-case (sorted elementwise — slots of one device are
// fungible), every a-slot's next-free time is within E below its
// b-slot's. 0 means a dominates b outright. Both states keep every
// device's segment ascending (see placeSlot), so the best-case pairing is
// position by position and the gap is one pass over the flat vectors;
// spatial devices hold no slots and never contribute. NaN entries (which
// cannot legitimately occur) poison the gap rather than shrink it,
// disabling the abort on the safe side.
func slotGap(a, b []float64) float64 {
	gap := 0.0
	for i, x := range a {
		if y := b[i] - x; !(y <= gap) {
			gap = y
		}
	}
	return gap
}

// patchWindow returns, for order o, the first and last positions
// holding a patched task: the resume point and the dominance-abort
// floor. Positions past pmax can still read a patched task, but the size
// of that read's backward shift is bounded exactly by readerDelta.
func (k *kernel) patchWindow(o int, patch []graph.NodeID) (i0, pmax int) {
	n := k.n
	i0, pmax = n, -1
	for _, v := range patch {
		p := int(k.pos[o*n+int(v)])
		if p < i0 {
			i0 = p
		}
		if p > pmax {
			pmax = p
		}
	}
	return i0, pmax
}

// readerDelta bounds, for order o at replay position pi (past every
// patched task's position), how far any not-yet-placed reader of a
// patched task can shift backward relative to the base recording
// because the patched task's times and device changed. For each edge
// patched-v -> unplaced-w it compares the recorded dependence terms
// (computed from the recording's times and v's OLD device — transfer
// arrival into w's ready time, or the streaming start/drain pair when v
// streamed on w's device) against guaranteed floors of the same terms
// under the candidate (v's replayed times and NEW device). The maximum
// positive difference, together with the replayed-task and slot-state
// perturbations, is a sup-norm bound on every variable input the
// remaining suffix can observe — the E of the dominance abort. Readers
// already placed by the replay are measured exactly (pert) and patched
// readers are replayed candidates themselves, so both are skipped.
func (k *kernel) readerDelta(st *simState, m []int, o, pi int, patch []graph.NodeID, pre *batchPrefix) float64 {
	n := k.n
	delta := 0.0
	for _, pv := range patch {
		v := int(pv)
		d := k.readerShift(st, m, o, v, int(pre.baseM[v]), m[v],
			pre.start[o*n+v], pre.finish[o*n+v], st.start[v], st.finish[v], pi)
		if d > delta {
			delta = d
		}
	}
	return delta
}

// readerShift is readerDelta's per-task core: the worst backward shift
// any unpatched reader of v at position >= pi can see, given v's
// recorded times/device (recS, recF, od) and candidate times/device
// (newS, newF, dv). The candidate times may themselves be lower bounds
// (the zero-replay pre-check passes analytic floors instead of replayed
// values); the result only weakens, never breaks. Patch membership is
// read from st's patch marks (see makespanInc).
func (k *kernel) readerShift(st *simState, m []int, o, v, od, dv int, recS, recF, newS, newF float64, pi int) float64 {
	n := k.n
	shift := 0.0
	for e := k.outStart[v]; e < k.outStart[v+1]; e++ {
		w := int(k.outTo[e])
		if int(k.pos[o*n+w]) < pi || st.patchMark[w] == st.patchEpoch {
			continue
		}
		dw := m[w]
		ie := k.outEdge[e]
		exw := k.exec[dw*n+w]
		// Recorded terms vs candidate floors: recReady/candReady feed
		// w's ready time (hence its start), recFin/candFin its finish
		// directly (the streaming drain). Zero means "no such term".
		var recReady, recFin, candReady, candFin float64
		sigma := k.inSigma[ie]
		if k.devStreaming[dw] && sigma > 0 && od == dw {
			recReady = recS + k.exec[dw*n+v]/sigma
			recFin = recF + exw/sigma
		} else {
			recReady = recF + k.transfer(od, dw, k.inBytes[ie])
		}
		if k.devStreaming[dw] && sigma > 0 && dv == dw {
			candReady = newS + k.exec[dw*n+v]/sigma
			candFin = newF + exw/sigma
		} else {
			candReady = newF + k.transfer(dv, dw, k.inBytes[ie])
		}
		if x := recReady - candReady; x > shift {
			shift = x
		}
		if recFin > 0 {
			floor := candReady + exw
			if candFin > floor {
				floor = candFin
			}
			if x := recFin - floor; x > shift {
				shift = x
			}
		}
	}
	return shift
}

// simOrderInc is simOrder's incremental sibling: it resumes order o of
// mapping m at position r from the recording pre, restoring the slot
// state and running makespan recorded there, and replays the rest of the
// order. Under a finite bound it aborts like simOrder (running makespan,
// and each placed task's finish plus its downstream residual st.res) and
// through one more bound:
//
// Dominance abort: once every patched task is placed (pi > pmax) each
// remaining task keeps the base mapping, so its placement arithmetic is
// structurally identical to the recording's and is built solely from
// operations that are monotone and 1-Lipschitz in their variable inputs
// — max and +constant (the streaming divides touch constants only), plus
// the per-device earliest-slot choice, whose sorted slot vector is a
// family of order statistics (monotone, 1-Lipschitz in the sup norm). If
// every variable input the suffix can observe sits at most E below its
// recorded value, then by induction every remaining finish time is >=
// its recorded value - E, hence the order's makespan is >= pre.sufMax
// here - E. E is the max of three exactly-tracked quantities: the worst
// backward time divergence of any replayed unpatched task (pert), the
// worst backward shift of a dependence term a still-unplaced reader of a
// patched task can see from the patch itself (readerDelta — the only way
// the mutation reaches past pmax structurally), and the slot-state lag
// at the current position (slotGap). When sufMax - E, deflated once
// against float rounding, still exceeds the caller's bound, the order
// aborts: for rejected candidates this typically fires at the
// first position past the last patched one, with E = 0 degenerating to
// plain one-sided dominance. The check is monotone: sufMax never rises
// along the order, pert never falls, delta is fixed and slotGap only
// adds to E. So it is armed only if sufMax at pmax+1 clears the bound
// (pmax = n disarms it), and disarmed for the rest of the replay as soon
// as sufMax - max(pert, delta) fails to; slotGap runs only while it can
// still decide an abort.
//
// Every placement executes the identical floating-point sequence as
// simOrder, so completed results are bit-identical to a full replay, and
// the bound-abort contract is simOrder's: an aborted order returns +Inf.
func (k *kernel) simOrderInc(st *simState, m []int, o, r, pmax int, patch []graph.NodeID, pre *batchPrefix, bound float64) float64 {
	n, ns := k.n, k.numSlots
	copy(st.free, pre.freeCkpt[(o*n+r)*ns:(o*n+r+1)*ns])
	makespan := pre.msCkpt[o*n+r]
	if makespan > bound {
		return math.Inf(1)
	}
	lbOn := !math.IsInf(bound, 1)
	preStart := pre.start[o*n : (o+1)*n]
	preFinish := pre.finish[o*n : (o+1)*n]
	st.epoch++
	epoch, stamp := st.epoch, st.stamp
	start, finish, free := st.start, st.finish, st.free
	order := k.orders[o*n : (o+1)*n]
	// The dominance abort checks once every patched task is placed
	// (pi > pmax), and only if it could fire there: its value never
	// exceeds sufMax at pmax+1. pert accumulates the worst backward
	// divergence of replayed unpatched tasks; delta (computed lazily,
	// once) bounds the backward shift of the patched tasks' still-unplaced
	// readers.
	dom := lbOn && pmax < n && pre.sufMax[o*(n+1)+pmax+1]*loadSlack > bound
	pert := 0.0
	delta, deltaOK := 0.0, false
	for pi := r; pi < n; pi++ {
		if dom && pi > pmax {
			if !deltaOK {
				delta = k.readerDelta(st, m, o, pi, patch, pre)
				deltaOK = true
			}
			sm, e := pre.sufMax[o*(n+1)+pi], pert
			if delta > e {
				e = delta
			}
			if (sm-e)*loadSlack <= bound {
				dom = false // monotone: it cannot fire from here on
			} else {
				if g := slotGap(free, pre.freeCkpt[(o*n+pi)*ns:(o*n+pi+1)*ns]); g > e {
					e = g
				}
				if (sm-e)*loadSlack > bound {
					return math.Inf(1)
				}
			}
		}
		v := int(order[pi])
		d := m[v]
		ready := 0.0
		if eb := k.entryBytes[v]; eb > 0 {
			ready = k.transfer(k.host, d, eb)
		}
		var streamDrain float64
		execD := k.exec[d*n : (d+1)*n]
		lo, hi := k.inStart[v], k.inStart[v+1]
		if k.devStreaming[d] {
			for i := lo; i < hi; i++ {
				u := int(k.inFrom[i])
				su, fu := preStart[u], preFinish[u]
				if stamp[u] == epoch {
					su, fu = start[u], finish[u]
				}
				if m[u] == d {
					if sigma := k.inSigma[i]; sigma > 0 {
						if t := su + execD[u]/sigma; t > ready {
							ready = t
						}
						if t := fu + execD[v]/sigma; t > streamDrain {
							streamDrain = t
						}
						continue
					}
				}
				if t := fu + k.transfer(m[u], d, k.inBytes[i]); t > ready {
					ready = t
				}
			}
		} else {
			for i := lo; i < hi; i++ {
				u := int(k.inFrom[i])
				fu := preFinish[u]
				if stamp[u] == epoch {
					fu = finish[u]
				}
				if t := fu + k.transfer(m[u], d, k.inBytes[i]); t > ready {
					ready = t
				}
			}
		}
		startT := ready
		s0, s1 := k.slotStart[d], k.slotStart[d+1]
		if s0 < s1 && free[s0] > startT {
			startT = free[s0]
		}
		fin := startT + execD[v]
		if streamDrain > fin {
			fin = streamDrain
		}
		if lbOn {
			// Path bound: the candidate's own downstream residual (st.res,
			// see kernel.residual) anticipates the whole chain below v
			// instead of waiting for the running makespan to discover it
			// one placement at a time.
			if (fin+st.res[v])*loadSlack > bound {
				return math.Inf(1)
			}
		}
		// Only an EARLIER time perturbs the dominance bound, and only for
		// unpatched tasks — a patched task's effect on its readers is
		// bounded by readerDelta and its slot footprint by slotGap.
		if dom && st.patchMark[v] != st.patchEpoch {
			if x := preStart[v] - startT; x > pert {
				pert = x
			}
			if x := preFinish[v] - fin; x > pert {
				pert = x
			}
		}
		start[v], finish[v] = startT, fin
		stamp[v] = epoch
		if s0 < s1 {
			placeSlot(free[s0:s1], fin)
		}
		if fin > makespan {
			makespan = fin
			if makespan > bound {
				return math.Inf(1)
			}
		}
	}
	return makespan
}

// rebaseOrder replays order o from position r to the end under mapping
// m and writes the replay back into pre, turning the recording into a
// faithful recording of m: the per-position slot/makespan checkpoints
// and per-task times are overwritten from r on, and the suffix maxima
// are then rebuilt in one scalar pass. The result is bit-identical to a
// fresh buildPrefix of m, which is this replay from position 0: one loop
// writes every recording.
//
// This is simOrderInc's placement arithmetic with everything evaluation-
// specific stripped: no bounds or dominance (the replay must be exact to
// the end), and no epoch/stamp overlay — because the recording is
// updated in place as the replay advances, pre.start/pre.finish always
// hold the correct current value for every already-placed task, whether
// it sits in the untouched prefix or was just replayed. That removes a
// branch and a second array read per edge from the hottest loop the
// session runs (the fold tail is the bulk of all replayed positions).
func (k *kernel) rebaseOrder(st *simState, m []int, o, r int, pre *batchPrefix) {
	n, ns := k.n, k.numSlots
	free := st.free
	copy(free, pre.freeCkpt[(o*n+r)*ns:(o*n+r+1)*ns])
	makespan := pre.msCkpt[o*n+r]
	preStart := pre.start[o*n : (o+1)*n]
	preFinish := pre.finish[o*n : (o+1)*n]
	order := k.orders[o*n : (o+1)*n]
	for pi := r; pi < n; pi++ {
		copy(pre.freeCkpt[(o*n+pi)*ns:(o*n+pi+1)*ns], free)
		pre.msCkpt[o*n+pi] = makespan
		v := int(order[pi])
		d := m[v]
		ready := 0.0
		if eb := k.entryBytes[v]; eb > 0 {
			ready = k.transfer(k.host, d, eb)
		}
		var streamDrain float64
		execD := k.exec[d*n : (d+1)*n]
		lo, hi := k.inStart[v], k.inStart[v+1]
		if k.devStreaming[d] {
			for i := lo; i < hi; i++ {
				u := int(k.inFrom[i])
				if m[u] == d {
					if sigma := k.inSigma[i]; sigma > 0 {
						if t := preStart[u] + execD[u]/sigma; t > ready {
							ready = t
						}
						if t := preFinish[u] + execD[v]/sigma; t > streamDrain {
							streamDrain = t
						}
						continue
					}
				}
				if t := preFinish[u] + k.transfer(m[u], d, k.inBytes[i]); t > ready {
					ready = t
				}
			}
		} else {
			for i := lo; i < hi; i++ {
				u := int(k.inFrom[i])
				if t := preFinish[u] + k.transfer(m[u], d, k.inBytes[i]); t > ready {
					ready = t
				}
			}
		}
		startT := ready
		s0, s1 := k.slotStart[d], k.slotStart[d+1]
		if s0 < s1 && free[s0] > startT {
			startT = free[s0]
		}
		fin := startT + execD[v]
		if streamDrain > fin {
			fin = streamDrain
		}
		preStart[v], preFinish[v] = startT, fin
		if s0 < s1 {
			placeSlot(free[s0:s1], fin)
		}
		if fin > makespan {
			makespan = fin
		}
	}
	// Every position from r on has a new finish, and every suffix maximum
	// folds them in.
	suf := pre.sufMax[o*(n+1) : (o+1)*(n+1)]
	for j := n - 1; j >= 0; j-- {
		suf[j] = suf[j+1]
		if f := preFinish[order[j]]; f > suf[j] {
			suf[j] = f
		}
	}
}

// preLB computes replay-free lower bounds on order o's makespan under
// the candidate mapping m (base recording pre patched at patch) and
// returns the strongest. Both bounds read the recording alone, so a
// reject here touches no checkpoint state.
//
// Path bound: each patched task's finish, bounded below through its
// recorded unpatched predecessors (an analytic floor: no slot wait,
// patched predecessors omitted), plus the candidate's downstream
// residual st.res (see kernel.residual; the caller must have filled it
// for m). Recorded predecessor times are only valid floors up to the
// influence of patch members placed EARLIER in this order — a member's
// departure can pull unpatched tasks after its position (and hence a
// later member's predecessors) backward. Members are therefore
// processed in position order and each floor is weakened by the
// accumulated influence (gap + released exec) of the members before it;
// for single-task patches the weakening is zero and the floor exact.
//
// Zero-replay dominance: the candidate is the recorded schedule with a
// few nodes of the max-plus placement network rewritten — the patched
// tasks' own placements, their readers' arrival terms, and the slot
// streams of the devices they leave. Every op is monotone and
// 1-Lipschitz in the sup norm, so any value can drop below its recorded
// counterpart by at most the sum over rewritten nodes a dependence path
// can cross (each at most once, in position order): per device the
// total exec released from its slots, plus per patched task the larger
// of its own finish gap (recorded finish minus the analytic floor — its
// entry in sufMax) and its worst reader-term gap (readerShift with the
// floors as candidate times; that gap already folds in the task's own
// shift, so the two never stack). The order's makespan is then
// >= sufMax[0] - E. Unlike the in-replay dominance abort this needs no
// measured state. Patch membership is read from st's patch marks, which
// must cover exactly patch (see makespanInc).
func (k *kernel) preLB(st *simState, m []int, o int, patch []graph.NodeID, pre *batchPrefix) float64 {
	n, nd := k.n, k.nd
	plb := 0.0
	preS := pre.start[o*n : (o+1)*n]
	preF := pre.finish[o*n : (o+1)*n]
	deep := len(patch) <= 32
	zeroE := 0.0
	rel := st.rel
	var order [32]int8 // patch indices by ascending position in o
	if deep {
		for d := 0; d < nd; d++ {
			rel[d] = 0
		}
		for i := range patch {
			p := k.pos[o*n+int(patch[i])]
			j := i - 1
			for j >= 0 && k.pos[o*n+int(patch[order[j]])] > p {
				order[j+1] = order[j]
				j--
			}
			order[j+1] = int8(i)
		}
	}
	i0 := 0 // position of the earliest patch member in o
	if deep && len(patch) > 0 {
		i0 = int(k.pos[o*n+int(patch[order[0]])])
	}
	eprefix := 0.0 // accumulated backward influence of earlier members
	for ii := range patch {
		v := int(patch[ii])
		if deep {
			v = int(patch[order[ii]])
		}
		d := m[v]
		ex := k.exec[d*n+v]
		f := ex
		if deep {
			od := int(pre.baseM[v])
			rdy, drain := 0.0, 0.0
			if eb := k.entryBytes[v]; eb > 0 {
				rdy = k.transfer(k.host, d, eb)
			}
			for i := k.inStart[v]; i < k.inStart[v+1]; i++ {
				u := int(k.inFrom[i])
				if st.patchMark[u] == st.patchEpoch {
					continue // its own times moved with the patch
				}
				if k.devStreaming[d] && m[u] == d {
					if sigma := k.inSigma[i]; sigma > 0 {
						if t := preS[u] + k.exec[d*n+u]/sigma; t > rdy {
							rdy = t
						}
						if t := preF[u] + ex/sigma; t > drain {
							drain = t
						}
						continue
					}
				}
				if t := preF[u] + k.transfer(m[u], d, k.inBytes[i]); t > rdy {
					rdy = t
				}
			}
			f = rdy + ex
			if drain > f {
				f = drain
			}
			gap := preF[v] - f
			if s := k.readerShift(st, m, o, v, od, d, preS[v], preF[v], rdy, f, 0); s > gap {
				gap = s
			}
			// Weaken the path-bound floor by earlier members' influence
			// BEFORE folding this member's own contributions in; its own
			// gap describes influence on tasks after it, not on itself.
			// Never drop below the absolute exec floor.
			if fw := f - eprefix; fw > ex {
				f = fw
			} else {
				f = ex
			}
			if gap > 0 {
				zeroE += gap
				eprefix += gap
			}
			if k.slotStart[od] < k.slotStart[od+1] {
				// Slot release: v's departure reverts its old slot's next-
				// free time from recF[v] to whatever it was before v was
				// placed — the head of od's segment in the checkpoint at
				// v's position. The advance includes any idle gap v's data
				// dependences forced, not just its execution time.
				p := int(k.pos[o*n+v])
				adv := preF[v] - pre.freeCkpt[(o*n+p)*k.numSlots+int(k.slotStart[od])]
				rel[od] += adv
				eprefix += adv
			}
		}
		if x := (f + st.res[v]) * loadSlack; x > plb {
			plb = x
		}
	}
	if deep {
		for d := 0; d < nd; d++ {
			zeroE += rel[d]
		}
		// Every rewritten node sits at position >= i0 (patched tasks by
		// definition of i0, their readers and slot releases after them),
		// and positions are topological, so the prefix before i0 replays
		// bit-identically: its running makespan msCkpt[i0] is an exact
		// floor needing neither the rewrite budget nor the float slack,
		// and only the suffix max must absorb zeroE.
		z := (pre.sufMax[o*(n+1)+i0] - zeroE) * loadSlack
		if mc := pre.msCkpt[o*n+i0]; mc > z {
			z = mc
		}
		if z > plb {
			plb = z
		}
	}
	return plb
}

// commit moves every task of patch to device in base and folds the move
// into pre, which must record base: it keeps the tasks whose device
// actually changes, writes them into base and pre's base row, and then
// rebases every order from its first moved position (rebaseOrder). pre
// is afterwards bit-identical to a fresh buildPrefix of the new base; a
// commit that moves no task leaves it untouched.
func (k *kernel) commit(st *simState, base []int, patch []graph.NodeID, device int, pre *batchPrefix) {
	moved := st.moved[:0]
	for _, v := range patch {
		if base[v] != device {
			base[v] = device
			pre.baseM[v] = int32(device)
			moved = append(moved, v)
		}
	}
	if len(moved) == 0 {
		return
	}
	for o := 0; o < k.numOrders; o++ {
		i0, _ := k.patchWindow(o, moved)
		k.rebaseOrder(st, base, o, i0, pre)
	}
}

// makespanInc is makespan for a patched mapping m whose unpatched base
// was recorded into pre: after one residual sweep for m
// (kernel.residual), a critical-path pre-check that can reject the
// candidate before any order is touched; then per order a pre-replay
// bound (preLB) followed by a resume at the first patched position with
// the dominance abort and the in-replay path bound (see simOrderInc).
// dom = false disables the dominance abort — the replay of patches a
// session's gate rejects. Results follow makespan's contract and
// aggregation: Infeasible, else the exact schedule-set minimum when it
// is <= cutoff, else rejected(cutoff). Orders are visited smallest
// recorded makespan first (then in index order), which tightens every
// later order's bound.
func (k *kernel) makespanInc(st *simState, m []int, patch []graph.NodeID, pre *batchPrefix, cutoff float64, dom bool) float64 {
	if !k.feasible(st, m) {
		return Infeasible
	}
	n := k.n
	st.patchEpoch++
	for _, v := range patch {
		st.patchMark[v] = st.patchEpoch
	}
	if k.residual(st, m)*loadSlack > cutoff {
		return rejected(cutoff)
	}
	// Visit the order with the smallest recorded makespan first, then the
	// rest in index order: a candidate's best order is usually the base's,
	// and completing it first hands every later order a bound close to the
	// candidate's minimum.
	first := 0
	for o := 1; o < k.numOrders; o++ {
		if pre.sufMax[o*(n+1)] < pre.sufMax[first*(n+1)] {
			first = o
		}
	}
	best := math.Inf(1) // min over the orders; rejected ones are +Inf
	for j := 0; j < k.numOrders; j++ {
		o := j - 1 // visit j: first, then 0..first-1, then first+1..
		if j == 0 {
			o = first
		} else if j > first {
			o = j
		}
		bound := cutoff
		if best < bound {
			bound = best
		}
		if !math.IsInf(bound, 1) && k.preLB(st, m, o, patch, pre) > bound {
			continue
		}
		i0, pmax := k.patchWindow(o, patch)
		if !dom {
			pmax = n
		}
		if ms := k.simOrderInc(st, m, o, i0, pmax, patch, pre, bound); ms < best {
			best = ms
		}
	}
	if best > cutoff {
		return rejected(cutoff)
	}
	return best
}

// IncrementalStats counts an Incremental session's activity. All
// counters are deterministic functions of the session's call sequence.
type IncrementalStats struct {
	// Evals counts Evaluate calls; FastPath of those replayed with the
	// dominance abort enabled, Fallback without it (the gate rejected the
	// patch).
	Evals, FastPath, Fallback int
	// Applies counts committed moves, Rebuilds full recordings (the
	// initial one plus one per Rebase actually followed by use).
	Applies, Rebuilds int
}

// Incremental is a long-lived single-goroutine evaluation session around
// an evolving base mapping — the engine-side core of the incremental
// SP-tree evaluation. It owns a private recording of the base's full
// simulation (every order's per-position schedule state) and serves
// three operations without simulating the unchanged prefix:
//
//   - Evaluate: makespan of the base with a patch applied. Each order
//     resumes at the first patched position and replays to the end
//     unless a bound aborts it (makespanInc). Patches the gate rejects
//     replay without the dominance abort.
//   - Apply: commit a patch to the base, folding it into every order's
//     recording at once (an in-place rebase of each order from its
//     first moved position) rather than re-recording.
//   - Rebase: adopt an arbitrary new base (elite restarts, kicks); the
//     recording is rebuilt lazily on next use.
//
// All results are bit-identical to the corresponding Engine calls on the
// materialized mapping. The session holds its scratch and recording for
// its whole lifetime, so the steady state allocates nothing; it bypasses
// any attached evaluation Cache (a cached engine returns the same values,
// so cached and uncached searches decide identically) and is NOT safe
// for concurrent use. Close returns the held buffers to the engine's
// pools.
type Incremental struct {
	e     *Engine
	gate  func([]graph.NodeID) bool
	base  []int
	st    *simState
	pre   *batchPrefix
	ready bool
	stats IncrementalStats
}

// Incremental opens an incremental evaluation session around a private
// copy of base. gate, if non-nil, decides per patch whether its replay
// enables the dominance abort (patches it rejects replay without it);
// single-task patches always enable it, and with a nil gate every patch
// does. The mappers pass nil: the abort is sound for any patch. base
// must have one entry per task of the compiled graph.
func (e *Engine) Incremental(base mapping.Mapping, gate func([]graph.NodeID) bool) *Incremental {
	s := &Incremental{
		e:    e,
		gate: gate,
		base: make([]int, len(base)),
		st:   e.getState(),
		pre:  e.prePool.Get().(*batchPrefix),
	}
	copy(s.base, base)
	return s
}

// ensure records the base simulation if the session is not warm.
func (s *Incremental) ensure() {
	if !s.ready {
		s.stats.Rebuilds++
		s.e.k.buildPrefix(s.st, s.base, s.pre)
		s.ready = true
	}
}

// Evaluate returns the makespan of the session base with every patched
// task remapped to device, under the engine's cutoff contract; an empty
// patch evaluates the base itself. The base is not modified. Patches
// must not repeat a task.
func (s *Incremental) Evaluate(patch []graph.NodeID, device int, cutoff float64) float64 {
	s.stats.Evals++
	if len(patch) == 0 {
		if ms := s.Makespan(); ms == Infeasible || ms <= cutoff {
			return ms
		}
		return rejected(cutoff)
	}
	s.ensure()
	st := s.st
	if st.basePtr != &s.base[0] {
		copy(st.mbuf, s.base)
		st.basePtr = &s.base[0]
	}
	for _, v := range patch {
		st.mbuf[v] = device
	}
	dom := len(patch) <= 1 || s.gate == nil || s.gate(patch)
	if dom {
		s.stats.FastPath++
	} else {
		s.stats.Fallback++
	}
	ms := s.e.k.makespanInc(st, st.mbuf, patch, s.pre, cutoff, dom)
	for _, v := range patch {
		st.mbuf[v] = s.base[v]
	}
	return ms
}

// Apply commits a patch to the session base and folds it into every
// order's recording at once (kernel.commit — a rebase of each order
// from its first moved position, bit-identical to a fresh build of the
// new base). Patches must
// not repeat a task.
func (s *Incremental) Apply(patch []graph.NodeID, device int) {
	s.ensure()
	if len(patch) == 0 {
		return
	}
	s.stats.Applies++
	s.e.k.commit(s.st, s.base, patch, device, s.pre)
	s.st.basePtr = nil // mbuf no longer mirrors the base contents
}

// Rebase adopts an arbitrary new base mapping (elite restart, kick,
// repair). The recording is invalidated and rebuilt lazily on the next
// Evaluate/Apply/Makespan — callers that rebase repeatedly without
// evaluating pay nothing.
func (s *Incremental) Rebase(m mapping.Mapping) {
	copy(s.base, m)
	s.ready = false
	s.st.basePtr = nil
}

// Makespan returns the exact makespan of the current session base,
// bit-identical to Engine.Makespan on it: each order's full makespan is
// read off the recording's sufMax root entry, no simulation at all.
func (s *Incremental) Makespan() float64 {
	s.ensure()
	k := s.e.k
	if !k.feasible(s.st, s.base) {
		return Infeasible
	}
	best := math.Inf(1)
	for o := 0; o < k.numOrders; o++ {
		if ms := s.pre.sufMax[o*(k.n+1)]; ms < best {
			best = ms
		}
	}
	if math.IsInf(best, -1) {
		// n == 0: the sufMax roots are -Inf (empty suffix) and the
		// reference makespan of an empty graph is 0.
		best = 0
	}
	return best
}

// Stats returns the session's activity counters.
func (s *Incremental) Stats() IncrementalStats { return s.stats }

// Close returns the session's scratch and recording to the engine pools.
// The session must not be used afterwards.
func (s *Incremental) Close() {
	if s.st != nil {
		s.e.pool.Put(s.st)
		s.e.prePool.Put(s.pre)
		s.st, s.pre = nil, nil
	}
}
