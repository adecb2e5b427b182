package eval

import (
	"math"

	"spmap/internal/graph"
	"spmap/internal/mapping"
)

// This file implements the incremental evaluation path: resumed order
// simulations that stop replaying as soon as the schedule state provably
// reconverges with a memoized base recording, a capacity lower bound
// that rejects over-cutoff candidates without replaying them at all, and
// a long-lived session (Incremental) that keeps one such recording alive
// across a whole local search. Accepted moves do not re-record: they are
// appended to per-order pending lists, and each order folds them into
// its recording (applyOrder — a windowed in-place rebase) only when an
// Evaluate actually replays that order; until then the order keeps
// rejecting candidates against its stale recording via the composed
// patch. See Incremental and Apply for the full lazy-apply contract.
//
// Why state reconvergence instead of literal SP-subtree recomposition: a
// list schedule couples unrelated SP subtrees through device-slot
// contention, so composing per-subtree partial schedules cannot be
// bit-identical to the reference simulation in general. The recorded
// per-position schedule state sidesteps this: a resumed simulation that
// (a) has placed every task that can still observe the mutation through
// a data edge and (b) reaches a position where the device-slot next-free
// times bit-equal the recording's checkpoint will, by induction over the
// identical placement arithmetic, reproduce the recorded suffix exactly.
// Its final makespan is then max(running makespan, memoized suffix
// contribution) — no replay needed. The SP decomposition forest decides
// WHICH moves take this path (see sp.Index and the localsearch wiring):
// single-task moves and co-moves inside one decomposition tree use it,
// boundary-crossing patches fall back to plain prefix resume.
//
// Why the capacity bound: under slot contention the running makespan of
// a rejected candidate crosses the cutoff only near the end of the
// order, so the bounded early exit saves little. The remaining per-
// device execution load is known up front (batchPrefix.sufLoad plus the
// patch delta), and a device's S slots can absorb at most
// S*ms - sum(free) of it by time ms, so
//
//	ms >= (sum_s free[s] + load[d]) / S_d
//
// for every non-spatial device d. The bound anticipates the whole
// suffix's load instead of discovering it one placement at a time,
// firing at (or right after) the resume point for typical rejects. Every
// returned bound is deflated by loadSlack so float rounding can never
// push it above the true makespan — the engine's cutoff contract (a
// result > cutoff both certifies and lower-bounds) survives intact.

// loadSlack deflates capacity lower bounds against float rounding: the
// bound's real-arithmetic value never exceeds the true makespan, and its
// floating-point evaluation deviates by at most ~n*eps + one rounding
// per Apply-rebuilt sufLoad row — orders of magnitude below 1e-9.
const loadSlack = 1 - 1e-9

// slotsEqual reports bit-equality of two slot next-free vectors. NaN
// entries (which cannot legitimately occur) compare unequal and thereby
// disable the fast-forward on the safe side.
func slotsEqual(a, b []float64) bool {
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// inPatch reports whether task v is one of the patched tasks (patches
// are a handful of tasks, so a linear scan beats any index).
func inPatch(patch []graph.NodeID, v int) bool {
	for _, q := range patch {
		if int(q) == v {
			return true
		}
	}
	return false
}

// insertSortSmall sorts a tiny slice ascending (device slot counts are
// single digits; insertion sort beats sort.Float64s with zero
// allocation and no interface boxing).
func insertSortSmall(a []float64) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// slotGap returns how far slot state a lags behind slot state b: the
// smallest E >= 0 such that, after pairing each device's interchangeable
// slots best-case (sorted elementwise — slots of one device are
// fungible), every a-slot's next-free time is within E below its
// b-slot's. 0 means a dominates b outright. Spatial devices hold no
// slots and never contribute. NaN entries (which cannot legitimately
// occur) poison the gap rather than shrink it, disabling the abort on
// the safe side.
func (k *kernel) slotGap(st *simState, a, b []float64) float64 {
	gap := 0.0
	for d := 0; d < k.nd; d++ {
		lo, hi := int(k.slotStart[d]), int(k.slotStart[d+1])
		switch hi - lo {
		case 0:
		case 1:
			if x := b[lo] - a[lo]; !(x <= gap) {
				gap = x
			}
		default:
			sa, sb := st.sortA[:hi-lo], st.sortB[:hi-lo]
			copy(sa, a[lo:hi])
			copy(sb, b[lo:hi])
			insertSortSmall(sa)
			insertSortSmall(sb)
			for i, x := range sa {
				if y := sb[i] - x; !(y <= gap) {
					gap = y
				}
			}
		}
	}
	return gap
}

// patchWindow returns, for order o, the first and last positions
// holding a patched task (the resume point and the dominance-abort
// floor) and the static dirty-path barrier: the last position that
// reads any patched task's placement (its times, its device for
// transfer costs, or its streaming pairing). Positions past the barrier
// can only differ from the base recording through schedule state, which
// the fast-forward check observes directly; positions past pmax can
// still read a patched task, but the size of that read's backward shift
// is bounded exactly by readerDelta.
func (k *kernel) patchWindow(o int, patch []graph.NodeID) (i0, pmax, barrier int) {
	n := k.n
	i0, pmax, barrier = n, -1, -1
	for _, v := range patch {
		if p := int(k.pos[o*n+int(v)]); p < i0 {
			i0 = p
		}
		if p := int(k.pos[o*n+int(v)]); p > pmax {
			pmax = p
		}
		if b := int(k.maxOutPos[o*n+int(v)]); b > barrier {
			barrier = b
		}
	}
	return i0, pmax, barrier
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
		d := k.readerShift(m, o, v, int(pre.baseMO[o*n+v]), m[v],
			pre.start[o*n+v], pre.finish[o*n+v], st.start[v], st.finish[v],
			pi, patch)
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
// values); the result only weakens, never breaks.
func (k *kernel) readerShift(m []int, o, v, od, dv int, recS, recF, newS, newF float64, pi int, patch []graph.NodeID) float64 {
	n := k.n
	shift := 0.0
	for e := k.outStart[v]; e < k.outStart[v+1]; e++ {
		w := int(k.outTo[e])
		if int(k.pos[o*n+w]) < pi || inPatch(patch, w) {
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
// mapping m at position r from the recording pre and stops replaying
// early through two mechanisms.
//
// Fast-forward: once past the dirty-path barrier, a position whose
// device-slot state bit-equals the recording's checkpoint proves every
// remaining placement reproduces the recording exactly, so the order's
// final makespan is max(running makespan, pre.sufMax at that position).
// The barrier starts at the caller's static bound (patchWindow; n
// disables fast-forward entirely) and is raised dynamically whenever a
// replayed task's times diverge from the recording, covering knock-on
// effects on unpatched tasks.
//
// Capacity bound (evaluation mode with a finite bound): the remaining
// per-device load — pre.sufLoad at the resume row, shifted by the
// patch's device deltas against pre.baseM — yields the lower bound
// (freeSum[d] + load[d]) / slots[d] per non-spatial device, checked once
// at the resume point and in O(1) per placement thereafter (only the
// placed device's terms change). When the deflated bound exceeds the
// caller's bound the order aborts, returning the bound itself: it is
// > bound and <= the true order makespan, exactly like a running-
// makespan abort.
//
// Dominance abort (evaluation mode with a finite bound): once every
// patched task is placed (pi > pmax) each remaining task keeps the base
// mapping, so its placement arithmetic is structurally identical to the
// recording's and is built solely from operations that are monotone and
// 1-Lipschitz in their variable inputs — max and +constant (the
// streaming divides touch constants only), plus the per-device
// earliest-slot choice, whose sorted slot vector is a family of order
// statistics (monotone, 1-Lipschitz in the sup norm). If every variable
// input the suffix can observe sits at most E below its recorded value,
// then by induction every remaining finish time is >= its recorded
// value - E, hence the order's makespan is >= pre.sufMax here - E. E is
// the max of three exactly-tracked quantities: the worst backward time
// divergence of any replayed unpatched task (pert), the worst backward
// shift of a dependence term a still-unplaced reader of a patched task
// can see from the patch itself (readerDelta — the only way the
// mutation reaches past pmax structurally), and the slot-state lag at
// the current position (slotGap). When sufMax - E, deflated once
// against float rounding, still exceeds the caller's bound, the order
// aborts with it: for rejected candidates this typically fires at the
// first position past the last patched one, with E = 0 degenerating to
// plain one-sided dominance. sufMax is non-increasing along the order,
// so once even the E = 0 form dips to the bound the check is disabled
// for the rest of the replay.
//
// Every placement executes the identical floating-point sequence as
// simOrder, so completed results are bit-identical to a full replay; the
// bound-abort contract is simOrder's, except that a fast-forwarded order
// returns its exact makespan even when that exceeds the bound
// (makespanInc's aggregation accounts for this).
func (k *kernel) simOrderInc(st *simState, m []int, o, r, pmax, barrier int, patch []graph.NodeID, pre *batchPrefix, bound float64) (float64, bool) {
	n, ns, nd := k.n, k.numSlots, k.nd
	copy(st.free, pre.freeCkpt[(o*n+r)*ns:(o*n+r+1)*ns])
	makespan := pre.msCkpt[o*n+r]
	if makespan > bound {
		return makespan, false
	}
	lbOn := !math.IsInf(bound, 1)
	if lbOn {
		load, freeSum := st.load, st.freeSum
		copy(load, pre.sufLoad[(o*(n+1)+r)*nd:(o*(n+1)+r+1)*nd])
		for _, pv := range patch {
			v := int(pv)
			od, dv := int(pre.baseMO[o*n+v]), m[v]
			load[od] -= k.exec[od*n+v]
			load[dv] += k.exec[dv*n+v]
		}
		lb := 0.0
		for d := 0; d < nd; d++ {
			inv := k.invSlots[d]
			if inv == 0 {
				continue // spatial device: no slot capacity to bound
			}
			sum := 0.0
			for s := int(k.slotStart[d]); s < int(k.slotStart[d+1]); s++ {
				sum += st.free[s]
			}
			freeSum[d] = sum
			if x := (sum + load[d]) * inv * loadSlack; x > lb {
				lb = x
			}
		}
		if lb > bound {
			return lb, false
		}
	}
	preStart := pre.start[o*n : (o+1)*n]
	preFinish := pre.finish[o*n : (o+1)*n]
	st.epoch++
	epoch, stamp := st.epoch, st.stamp
	start, finish, free := st.start, st.finish, st.free
	order := k.orders[o*n : (o+1)*n]
	skip := n
	// The dominance abort arms once every patched task is placed
	// (pi > pmax). pert accumulates the worst backward divergence of
	// replayed unpatched tasks; delta (computed lazily, once) bounds the
	// backward shift of the patched tasks' still-unplaced readers.
	dom := lbOn && pmax < n
	pert := 0.0
	delta, deltaOK := 0.0, false
	for pi := r; pi < n; pi++ {
		ck := pre.freeCkpt[(o*n+pi)*ns : (o*n+pi+1)*ns]
		if pi > barrier && slotsEqual(free, ck) {
			skip = pi
			break
		}
		if dom && pi > pmax {
			if sm := pre.sufMax[o*(n+1)+pi]; sm*loadSlack > bound {
				if !deltaOK {
					delta = k.readerDelta(st, m, o, pi, patch, pre)
					deltaOK = true
				}
				e := pert
				if delta > e {
					e = delta
				}
				if g := k.slotGap(st, free, ck); g > e {
					e = g
				}
				if lb := (sm - e) * loadSlack; lb > bound {
					return lb, false
				}
			} else {
				dom = false
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
		slot := -1
		if !k.devSpatial[d] {
			slot = int(k.slotStart[d])
			for s := slot + 1; s < int(k.slotStart[d+1]); s++ {
				if free[s] < free[slot] {
					slot = s
				}
			}
			if free[slot] > startT {
				startT = free[slot]
			}
		}
		fin := startT + execD[v]
		if streamDrain > fin {
			fin = streamDrain
		}
		if lbOn {
			// Path bound: the downstream residual anticipates the whole
			// chain below v instead of waiting for the running makespan to
			// discover it one placement at a time.
			if x := (fin + k.bres[v]) * loadSlack; x > bound {
				return x, false
			}
		}
		// Dynamic barrier: a divergent replayed task must have all of its
		// readers replayed too. Only an EARLIER time perturbs the
		// dominance bound, and only for unpatched tasks — a patched
		// task's effect on its readers is bounded by readerDelta and its
		// slot footprint by slotGap.
		if startT != preStart[v] || fin != preFinish[v] {
			if dom && !inPatch(patch, v) {
				if x := preStart[v] - startT; x > pert {
					pert = x
				}
				if x := preFinish[v] - fin; x > pert {
					pert = x
				}
			}
			if mp := int(k.maxOutPos[o*n+v]); mp > barrier {
				barrier = mp
			}
		}
		start[v], finish[v] = startT, fin
		stamp[v] = epoch
		if slot >= 0 {
			if lbOn {
				// O(1) capacity recheck: only the placed device's slot sum
				// and remaining load moved (fin >= the slot's old free time).
				st.freeSum[d] += fin - free[slot]
				st.load[d] -= execD[v]
				if x := (st.freeSum[d] + st.load[d]) * k.invSlots[d] * loadSlack; x > bound {
					return x, false
				}
			}
			free[slot] = fin
		}
		if fin > makespan {
			makespan = fin
			if makespan > bound {
				return makespan, false
			}
		}
	}
	if skip < n {
		if s := pre.sufMax[o*(n+1)+skip]; s > makespan {
			makespan = s
		}
	}
	return makespan, true
}

// rebaseOrder replays order o's dirty window [r, reconvergence) under
// mapping m and writes it back into pre, turning the recording into a
// faithful recording of m: per-position slot/makespan checkpoints and
// per-task times are overwritten up to the reconvergence point — each
// compared against before overwrite, since the fast-forward check and
// the dynamic barrier consult the OLD recording — and the msCkpt suffix
// and sufMax prefix are then repaired by two scalar passes. The result
// is bit-identical to a fresh buildPrefix of m.
//
// This is simOrderInc's placement arithmetic with everything evaluation-
// specific stripped: no bounds or dominance (the replay must be exact to
// the end), and no epoch/stamp overlay — because the recording is
// updated in place as the replay advances, pre.start/pre.finish always
// hold the correct current value for every already-placed task, whether
// it sits in the untouched prefix or was just replayed. That removes a
// branch and a second array read per edge from the hottest loop the
// session runs (the fold tail is the bulk of all replayed positions).
func (k *kernel) rebaseOrder(st *simState, m []int, o, r, barrier int, pre *batchPrefix) {
	n, ns := k.n, k.numSlots
	free := st.free
	copy(free, pre.freeCkpt[(o*n+r)*ns:(o*n+r+1)*ns])
	makespan := pre.msCkpt[o*n+r]
	preStart := pre.start[o*n : (o+1)*n]
	preFinish := pre.finish[o*n : (o+1)*n]
	order := k.orders[o*n : (o+1)*n]
	skip := n
	for pi := r; pi < n; pi++ {
		ck := pre.freeCkpt[(o*n+pi)*ns : (o*n+pi+1)*ns]
		if pi > barrier && slotsEqual(free, ck) {
			skip = pi
			break
		}
		for i, x := range free {
			ck[i] = x
		}
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
		slot := -1
		if !k.devSpatial[d] {
			slot = int(k.slotStart[d])
			for s := slot + 1; s < int(k.slotStart[d+1]); s++ {
				if free[s] < free[slot] {
					slot = s
				}
			}
			if free[slot] > startT {
				startT = free[slot]
			}
		}
		fin := startT + execD[v]
		if streamDrain > fin {
			fin = streamDrain
		}
		// Dynamic barrier: a divergent replayed task must have all of
		// its readers replayed too.
		if startT != preStart[v] || fin != preFinish[v] {
			if mp := int(k.maxOutPos[o*n+v]); mp > barrier {
				barrier = mp
			}
		}
		preStart[v], preFinish[v] = startT, fin
		if slot >= 0 {
			free[slot] = fin
		}
		if fin > makespan {
			makespan = fin
		}
	}
	// The window is rewritten; repair the untouched suffix's running-
	// makespan checkpoints (suffix finishes are unchanged, but the
	// running makespan flowing into them may not be) and rebuild the
	// suffix-max contributions over the rewritten prefix.
	for j := skip; j < n; j++ {
		pre.msCkpt[o*n+j] = makespan
		if f := preFinish[order[j]]; f > makespan {
			makespan = f
		}
	}
	suf := pre.sufMax[o*(n+1) : (o+1)*(n+1)]
	for j := skip - 1; j >= 0; j-- {
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
// patched predecessors omitted), plus the static downstream residual
// bres. Recorded predecessor times are only valid floors up to the
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
// measured state.
func (k *kernel) preLB(st *simState, m []int, o int, patch []graph.NodeID, pre *batchPrefix, bound float64) float64 {
	n, nd := k.n, k.nd
	// Shallow phase: each member's absolute exec floor plus its downstream
	// residual is already a valid path bound and costs two loads per
	// member. Only when it fails to reject does the deep phase pay for
	// predecessor floors, reader shifts and the zero-replay budget.
	plb := 0.0
	for _, pv := range patch {
		v := int(pv)
		d := m[v]
		if x := (k.exec[d*n+v] + k.bres[v]) * loadSlack; x > plb {
			plb = x
		}
	}
	if plb > bound {
		return plb
	}
	preS := pre.start[o*n : (o+1)*n]
	preF := pre.finish[o*n : (o+1)*n]
	deep := len(patch) <= 32
	zeroE := 0.0
	rel := st.load     // scratch; simOrderInc rebuilds st.load before any use
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
			od := int(pre.baseMO[o*n+v])
			rdy, drain := 0.0, 0.0
			if eb := k.entryBytes[v]; eb > 0 {
				rdy = k.transfer(k.host, d, eb)
			}
			for i := k.inStart[v]; i < k.inStart[v+1]; i++ {
				u := int(k.inFrom[i])
				if inPatch(patch, u) {
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
			if s := k.readerShift(m, o, v, od, d, preS[v], preF[v], rdy, f, 0, patch); s > gap {
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
			if k.invSlots[od] != 0 {
				// Slot release: v's departure reverts its old slot's next-
				// free time from recF[v] to whatever it was before v was
				// placed — the argmin of od's slots in the checkpoint at
				// v's position. The advance includes any idle gap v's data
				// dependences forced, not just its execution time.
				p := int(k.pos[o*n+v])
				ck := pre.freeCkpt[(o*n+p)*k.numSlots : (o*n+p+1)*k.numSlots]
				minf := math.Inf(1)
				for s := k.slotStart[od]; s < k.slotStart[od+1]; s++ {
					if ck[s] < minf {
						minf = ck[s]
					}
				}
				adv := preF[v] - minf
				rel[od] += adv
				eprefix += adv
			}
		}
		if x := (f + k.bres[v]) * loadSlack; x > plb {
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

// composed returns order o's effective patch: the caller's patch
// extended with every pending lazily-applied task whose recorded device
// in this order's (possibly stale) recording differs from the candidate
// mapping m. The recording plus the composed patch is then exactly as
// valid an evaluation basis as a fresh recording plus the plain patch —
// the recording faithfully describes its own baseMO row, and the
// composed patch covers every task where m departs from that row. The
// result aliases st.cpbuf whenever an extension is needed.
func (k *kernel) composed(st *simState, m []int, o int, patch []graph.NodeID, pend []graph.NodeID, pre *batchPrefix) []graph.NodeID {
	n := k.n
	cp := patch
	for _, pv := range pend {
		v := int(pv)
		if int(pre.baseMO[o*n+v]) == m[v] || inPatch(patch, v) {
			continue
		}
		if len(cp) == len(patch) {
			cp = append(st.cpbuf[:0], patch...)
		}
		cp = append(cp, pv)
	}
	return cp
}

// applyOrder folds a batch of pending moves into order o's recording:
// tasks lists the candidates (typically the session's pending list),
// base is the mapping the recording must describe afterwards. Tasks
// whose recorded device already matches base are skipped; if any
// remain, the baseMO row and the dirty sufLoad rows are re-derived and
// the dirty window is replayed in rebase mode. The result is
// bit-identical to a fresh buildPrefix of base on this order, exactly
// like the eager per-move rebase it batches up — deferring and folding
// several moves at once changes nothing, because the rebase replays
// from the first changed position to bit-exact reconvergence.
func (k *kernel) applyOrder(st *simState, base []int, o int, tasks []graph.NodeID, pre *batchPrefix) {
	n, nd := k.n, k.nd
	i0, pmax, barrier := n, -1, -1
	for _, pv := range tasks {
		v := int(pv)
		if int(pre.baseMO[o*n+v]) == base[v] {
			continue
		}
		if p := int(k.pos[o*n+v]); p < i0 {
			i0 = p
		}
		if p := int(k.pos[o*n+v]); p > pmax {
			pmax = p
		}
		if b := int(k.maxOutPos[o*n+v]); b > barrier {
			barrier = b
		}
	}
	if pmax < 0 {
		return // every pending task re-matched its recorded device
	}
	for _, pv := range tasks {
		v := int(pv)
		pre.baseMO[o*n+v] = int32(base[v])
	}
	// Re-derive the sufLoad rows covering the changed positions from the
	// first untouched row — the same recurrence buildPrefix uses, so the
	// result is bit-identical to a fresh build and immune to incremental
	// float drift.
	sl := pre.sufLoad[o*(n+1)*nd : (o+1)*(n+1)*nd]
	order := k.orders[o*n : (o+1)*n]
	for j := pmax; j >= 0; j-- {
		copy(sl[j*nd:(j+1)*nd], sl[(j+1)*nd:(j+2)*nd])
		v := int(order[j])
		d := base[v]
		sl[j*nd+d] += k.exec[d*n+v]
	}
	k.rebaseOrder(st, base, o, i0, barrier, pre)
}

// makespanInc is makespan for a patched mapping m whose unpatched base
// was recorded into pre: a global capacity pre-check that can reject the
// candidate before any order is touched, then per order a path-bound
// pre-check followed by a resume at the first patched position with
// fast-forwarding, the dominance abort and the in-replay capacity bound
// (see simOrderInc). ff = false disables fast-forward and dominance —
// the plain prefix-resume path for composition-boundary-crossing
// patches. Results are bit-identical to makespan under the same
// contract: the returned value is the exact schedule-set minimum
// whenever it is <= cutoff, and otherwise both exceeds the cutoff and
// lower-bounds the true makespan.
//
// The aggregation differs slightly from makespan's because a fast-
// forwarded order completes with its exact makespan even when that
// exceeds the order's bound. best (min over completed orders) is
// therefore exact but possibly > cutoff; in that case every abort ran
// against bound = cutoff (best never dipped below it), so
// min(best, minAbort) still exceeds the cutoff while lower-bounding the
// true minimum — exactly the certificate the engine promises.
//
// base/pend carry the incremental session's lazy-apply state (nil from
// the batch path, whose recording is always fresh): pend[o] lists the
// accepted moves not yet folded into order o's recording. Each order is
// pre-checked against its stale recording with the composed patch —
// sound, because the recording faithfully describes its own baseMO row
// and the composed patch covers every diff to the candidate, so the
// stale recording plus the composed patch is the same evaluation basis
// as a fresh recording plus the plain patch. Only when the pre-check
// fails to reject (the order is "hot" and will actually replay) are the
// pending moves folded in (applyOrder), after which the replay runs
// against a fresh recording with the plain patch — keeping the fast-
// forward barrier and the dominance window tight, and keeping the NEXT
// pre-check on this order strong (a fresh order's composed patch is the
// plain patch, whose small rewrite budget E rejects far more). Cold
// orders — recorded makespan far above the bound — keep rejecting
// against their stale recording and never pay the fold; their pending
// lists drain in Incremental.Apply when they outgrow the cap. Returned
// values are unchanged wherever they are <= cutoff (completed replays
// run on freshened recordings and are exact); above the cutoff both the
// stale and fresh pre-check bounds certify and lower-bound, which is
// all the contract promises.
func (k *kernel) makespanInc(st *simState, m []int, patch []graph.NodeID, pre *batchPrefix, cutoff float64, ff bool, base []int, pend [][]graph.NodeID) float64 {
	if !k.feasible(st, m) {
		return Infeasible
	}
	n, nd := k.n, k.nd
	lazy := pend != nil
	if k.numOrders > 0 && !math.IsInf(cutoff, 1) {
		// Global capacity pre-check from an empty schedule (sufLoad row 0
		// of order 0 is the whole graph's per-device load under that
		// order's recorded base row): every order's makespan is at least
		// load[d]/slots[d], so a bound above the cutoff rejects the
		// candidate in O(|patch| + devices).
		cp0 := patch
		if lazy {
			cp0 = k.composed(st, m, 0, patch, pend[0], pre)
		}
		load := st.load
		copy(load, pre.sufLoad[:nd])
		for _, pv := range cp0 {
			v := int(pv)
			od, dv := int(pre.baseMO[v]), m[v]
			load[od] -= k.exec[od*n+v]
			load[dv] += k.exec[dv*n+v]
		}
		lb := 0.0
		for d := 0; d < nd; d++ {
			if x := load[d] * k.invSlots[d] * loadSlack; x > lb {
				lb = x
			}
		}
		if lb > cutoff {
			return lb
		}
	}
	best := math.Inf(1)
	minAbort := math.Inf(1)
	for o := 0; o < k.numOrders; o++ {
		bound := cutoff
		if best < bound {
			bound = best
		}
		cp := patch
		if lazy {
			cp = k.composed(st, m, o, patch, pend[o], pre)
		}
		if !math.IsInf(bound, 1) {
			plb := k.preLB(st, m, o, cp, pre, bound)
			if plb > bound {
				if plb < minAbort {
					minAbort = plb
				}
				continue
			}
		}
		if len(cp) > len(patch) {
			// Hot stale order: fold the pending moves in, then replay the
			// plain patch against the now-fresh recording. Folding on the
			// first hot hit measures fastest: tolerating even two pending
			// diffs in the replayed patch widens the dominance window and
			// rewrite budget enough to cost more than the fold saves.
			k.applyOrder(st, base, o, pend[o], pre)
			pend[o] = pend[o][:0]
		}
		i0, pmax, barrier := k.patchWindow(o, patch)
		if !ff {
			pmax, barrier = n, n
		}
		ms, complete := k.simOrderInc(st, m, o, i0, pmax, barrier, patch, pre, bound)
		if complete {
			if ms < best {
				best = ms
			}
		} else {
			if ms < minAbort {
				minAbort = ms
			}
		}
	}
	if best <= cutoff || minAbort > best {
		return best
	}
	return minAbort
}

// IncrementalStats counts an Incremental session's activity. All
// counters are deterministic functions of the session's call sequence.
type IncrementalStats struct {
	// Evals counts Evaluate calls; FastPath of those took the
	// fast-forward path, Fallback the plain prefix-resume path.
	Evals, FastPath, Fallback int
	// Applies counts accepted-move rebases, Rebuilds full recordings
	// (the initial one plus one per Rebase actually followed by use).
	Applies, Rebuilds int
}

// Incremental is a long-lived single-goroutine evaluation session around
// an evolving base mapping — the engine-side core of the incremental
// SP-tree evaluation. It owns a private recording of the base's full
// simulation (every order's per-position schedule state plus per-device
// suffix loads) and serves three operations in O(dirty window) instead
// of O(n):
//
//   - Evaluate: makespan of the base with a patch applied. The global
//     capacity bound rejects most over-cutoff candidates outright; the
//     rest resume each order at the first patched position with fast-
//     forwarding and the in-replay capacity bound (simOrderInc). Moves
//     whose patch the gate rejects (boundary-crossing co-moves) fall
//     back to the plain prefix-resume replay — still resumed and still
//     capacity-bounded, just without fast-forward.
//   - Apply: commit a patch to the base, repairing the recording in
//     place (a windowed rebase per order) rather than re-recording.
//   - Rebase: adopt an arbitrary new base (elite restarts, kicks); the
//     recording is rebuilt lazily on next use.
//
// All results are bit-identical to the corresponding Engine calls on the
// materialized mapping. The session holds its scratch and recording for
// its whole lifetime, so the steady state allocates nothing; it bypasses
// any attached evaluation Cache (its results are exact either way, so
// cached and uncached searches still decide identically) and is NOT safe
// for concurrent use. Close returns the held buffers to the engine's
// pools.
type Incremental struct {
	e    *Engine
	gate func([]graph.NodeID) bool
	base []int
	st   *simState
	pre  *batchPrefix

	// pend[o] holds the accepted moves not yet folded into order o's
	// recording (the lazy apply): Apply only appends here, and an order
	// pays the fold (kernel.applyOrder) the first time an Evaluate
	// actually needs to replay it. Orders whose recorded makespan stays
	// far above the search's cutoffs keep rejecting candidates against
	// their stale recording via the composed patch and never pay at all.
	// clean is false while any order may have pending moves.
	pend  [][]graph.NodeID
	clean bool

	ready bool
	stats IncrementalStats
}

// pendCap bounds a per-order pending list: beyond it Apply folds the
// order eagerly. It keeps composed patches within preLB's deep-analysis
// cap (32) and the stale resume windows short.
const pendCap = 24

// Incremental opens an incremental evaluation session around a private
// copy of base. gate, if non-nil, decides per patch whether the
// fast-forward path applies (the localsearch wiring passes an sp.Index
// membership test: patches within one decomposition tree fast-forward,
// boundary-crossing ones fall back); single-task patches always
// fast-forward. base must have one entry per task of the compiled graph.
func (e *Engine) Incremental(base mapping.Mapping, gate func([]graph.NodeID) bool) *Incremental {
	s := &Incremental{
		e:    e,
		gate: gate,
		base: make([]int, len(base)),
		st:   e.getState(),
		pre:  e.prePool.Get().(*batchPrefix),
		pend: make([][]graph.NodeID, e.k.numOrders),
	}
	// One backing array for every order's pending list; the full slice
	// expression caps each list at its own stripe.
	stripes := make([]graph.NodeID, len(s.pend)*pendCap)
	for o := range s.pend {
		s.pend[o] = stripes[o*pendCap : o*pendCap : (o+1)*pendCap]
	}
	copy(s.base, base)
	return s
}

// ensure records the base simulation if the session is not warm.
func (s *Incremental) ensure() {
	if !s.ready {
		s.stats.Rebuilds++
		s.e.k.buildPrefix(s.st, s.base, s.pre)
		for o := range s.pend {
			s.pend[o] = s.pend[o][:0]
		}
		s.clean = true
		s.ready = true
	}
}

// flush folds every order's pending moves into the recording, leaving
// it bit-identical to a fresh build of the current base.
func (s *Incremental) flush() {
	if s.clean {
		return
	}
	k := s.e.k
	for o := range s.pend {
		if len(s.pend[o]) == 0 {
			continue
		}
		k.applyOrder(s.st, s.base, o, s.pend[o], s.pre)
		s.pend[o] = s.pend[o][:0]
	}
	s.clean = true
}

// Evaluate returns the makespan of the session base with every patched
// task remapped to device, under the engine's MakespanCutoff contract.
// The base itself is not modified. Patches must not repeat a task.
func (s *Incremental) Evaluate(patch []graph.NodeID, device int, cutoff float64) float64 {
	s.stats.Evals++
	s.ensure()
	if len(patch) == 0 {
		s.flush()
		return s.makespanFromMemo()
	}
	st := s.st
	if st.basePtr != &s.base[0] {
		copy(st.mbuf, s.base)
		st.basePtr = &s.base[0]
	}
	for _, v := range patch {
		st.mbuf[v] = device
	}
	ff := len(patch) <= 1 || s.gate == nil || s.gate(patch)
	if ff {
		s.stats.FastPath++
	} else {
		s.stats.Fallback++
	}
	ms := s.e.k.makespanInc(st, st.mbuf, patch, s.pre, cutoff, ff, s.base, s.pend)
	for _, v := range patch {
		st.mbuf[v] = s.base[v]
	}
	return ms
}

// Apply commits a patch to the session base. The recording is NOT
// repaired eagerly: the move is appended to every order's pending list,
// and an order folds its pending moves in (kernel.applyOrder — the
// windowed rebase, bit-identical to a fresh build of the new base) the
// first time an Evaluate actually replays it. Until then the order
// serves pre-check rejections from its stale recording via the composed
// patch, which is just as sound and costs nothing on commit. An order
// whose pending list would outgrow pendCap is folded here instead.
// Patches must not repeat a task.
func (s *Incremental) Apply(patch []graph.NodeID, device int) {
	s.ensure()
	if len(patch) == 0 {
		return
	}
	s.stats.Applies++
	k := s.e.k
	// Fold overflowing orders BEFORE the base absorbs this patch: the
	// fold replays with the session base, which must still agree with
	// the recording on every task outside the order's pending list —
	// this patch's tasks stay pending (appended below), so folding them
	// in here would desynchronize the recording from its baseMO row.
	for o := range s.pend {
		if pd := s.pend[o]; len(pd)+len(patch) > pendCap {
			k.applyOrder(s.st, s.base, o, pd, s.pre)
			s.pend[o] = pd[:0]
		}
	}
	for _, v := range patch {
		s.base[v] = device
	}
	s.st.basePtr = nil // mbuf no longer mirrors the base contents
	s.clean = false
	for o := range s.pend {
		pd := s.pend[o]
		for _, pv := range patch {
			if !inPatch(pd, int(pv)) {
				pd = append(pd, pv)
			}
		}
		s.pend[o] = pd
	}
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
	s.flush()
	return s.makespanFromMemo()
}

func (s *Incremental) makespanFromMemo() float64 {
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
