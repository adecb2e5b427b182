// Package eval is the shared evaluation engine behind the model-based
// cost function: a compiled simulation kernel plus a batch-parallel
// front-end (Engine).
//
// Compiling flattens one (graph, platform, schedule set) triple into
// contiguous CSR-style arrays once, so that simulating a list schedule is
// a branch-light linear scan with no per-task slice allocations or
// pointer-chasing adjacency lookups. On top of the kernel, makespan
// evaluation applies bounded early exit: the running makespan of a list
// schedule is monotone non-decreasing while tasks are placed, and the
// reported makespan of a mapping is the minimum over a fixed schedule
// set, so each order's simulation aborts as soon as its partial makespan,
// or a placed task's finish plus the mapping's downstream residual,
// exceeds the best completed order so far (or a caller-supplied cutoff).
//
// Every makespan evaluation path obeys one cutoff contract: an
// infeasible mapping yields Infeasible; otherwise the result is the
// exact makespan, bit-identical to the straightforward simulation, when
// that is at or below the cutoff, and math.Nextafter(cutoff, +Inf) when
// it is above.
// The value therefore never depends on which path, cache or batch
// evaluated the mapping, and the greedy mappers' deterministic-cost
// termination guarantee (paper §III-A) stays intact.
package eval

import (
	"math"

	"spmap/internal/graph"
	"spmap/internal/platform"
)

// Infeasible is the makespan reported for mappings that violate device
// area capacities. It equals model.Infeasible.
const Infeasible = math.MaxFloat64

// rejected is the one value every makespan evaluation path reports for a
// feasible mapping proven to exceed cutoff: the smallest float64 above
// it. It exceeds the cutoff and, since the true makespan does too, is at
// most the true makespan.
func rejected(cutoff float64) float64 { return math.Nextafter(cutoff, math.Inf(1)) }

// ExecTime returns the modeled execution time of task v on device d
// (paper §II-B). Work is complexity x input bytes. Non-streaming devices
// follow Amdahl's law over the device's lanes: t = W*(p/Peak + (1-p)/lane).
// Streaming (FPGA-like) devices run a task as a pipeline at
// Peak x streamability. Virtual tasks are free everywhere.
func ExecTime(g *graph.DAG, v graph.NodeID, d *platform.Device) float64 {
	t := g.Task(v)
	if t.Virtual {
		return 0
	}
	work := t.Complexity * g.InBytes(v)
	if work == 0 {
		return 0
	}
	if d.Streaming {
		s := t.Streamability
		if s < 1 {
			s = 1
		}
		return work / (d.PeakOps * s)
	}
	// A task occupies one of the device's slots; its parallel part scales
	// over the slot's share of the lanes.
	p := t.Parallelizability
	slotPeak := d.PeakOps / float64(d.NumSlots())
	return work * (p/slotPeak + (1-p)/d.LaneOps())
}

// streamSigma returns the pipelining overlap factor sigma >= 1 for edge
// (u,v) when co-mapped on a streaming device, or 0 if the pair cannot
// stream (mirrors the model's streamFactor).
func streamSigma(g *graph.DAG, u, v graph.NodeID) float64 {
	tu, tv := g.Task(u), g.Task(v)
	su, sv := tu.Streamability, tv.Streamability
	if tu.Virtual {
		su = sv
	}
	if tv.Virtual {
		sv = su
	}
	s := math.Min(su, sv)
	if s < 1 {
		return 0
	}
	return s
}

// kernel is the immutable compiled form of one (graph, platform,
// schedule set) triple. All arrays are contiguous and indexed by dense
// ids, so an order simulation touches no Go interfaces, maps, or nested
// slices. A kernel is safe for concurrent use; the mutable scratch lives
// in simState, and so does everything that depends on the candidate
// mapping, such as the downstream residual every path bound reads.
type kernel struct {
	n  int // tasks
	nd int // devices

	// exec is the task-by-device execution-time table, row-major by
	// device: exec[d*n+v].
	exec []float64

	// energyTab is the task-by-device compute-energy table, row-major by
	// device: energyTab[d*n+v] = exec[d*n+v] * PowerW[d]. Each entry is
	// the exact product the reference (model.Evaluator.Energy) computes
	// per task, so summing rows in task order reproduces the reference
	// energy bit-for-bit.
	energyTab []float64

	// orders holds the fixed schedule set, numOrders rows of n task ids
	// each, concatenated. pos is its inverse: pos[o*n+v] is the position
	// of task v within order o (used to find the resume point of patched
	// batch evaluations).
	orders    []int32
	pos       []int32
	numOrders int

	// In-edge CSR: the in-edges of task v occupy inFrom/inBytes/inSigma
	// [inStart[v]:inStart[v+1]], in the graph's insertion order (the same
	// order DAG.InEdges reports). inSigma is the precomputed streaming
	// overlap factor of the edge (0 = the pair cannot stream).
	inStart []int32
	inFrom  []int32
	inBytes []float64
	inSigma []float64

	// Out-edge CSR: the readers of task v occupy outTo[outStart[v]:
	// outStart[v+1]]; outEdge holds the matching in-edge index (for
	// bytes/sigma). Built by transposing the in-edge CSR in compile.
	outStart []int32
	outTo    []int32
	outEdge  []int32

	// entryBytes[v] is the task's SourceBytes if v is an entry task (no
	// in-edges), else 0; entry data arrives from the host device.
	entryBytes []float64
	host       int

	// taskArea[v] is the reconfigurable-area footprint of v.
	taskArea []float64

	// Per-device metadata.
	devStreaming []bool
	devArea      []float64 // capacity; 0 = unconstrained
	// slotStart[d]..slotStart[d+1] are device d's slots in the flattened
	// next-free array. A spatial device runs its tasks side by side and
	// never waits for a slot, so it gets none: an empty segment is how
	// every simulation loop recognizes it.
	slotStart []int32
	numSlots  int

	// Star-interconnect transfer constants per ordered device pair
	// (a*nd+b): pairLat is the summed per-hop setup latency, pairBW the
	// bottleneck bandwidth. The transfer time of a non-local, non-empty
	// move is pairLat + bytes/pairBW — the same expression, evaluated in
	// the same order, as platform.TransferTime.
	pairLat []float64
	pairBW  []float64
}

// compile flattens (g, p, orders) into a kernel. The orders must be
// topological orders of g covering every task.
func compile(g *graph.DAG, p *platform.Platform, orders [][]graph.NodeID) *kernel {
	return compileNoise(g, p, orders, nil, 0)
}

// compileNoise is compile with an optional noise perturbation: non-nil
// noise multiplies the execution-time table (and with it the energy
// table and every per-candidate path bound read from it), the
// per-edge transfer payloads and the entry-task source payloads by the
// model's hashed per-sample factors. The perturbation happens entirely
// at compile time — the simulation loops are untouched, so a perturbed
// kernel evaluates at exactly the nominal kernel's cost and a nil noise
// compiles bit-identically to compile.
func compileNoise(g *graph.DAG, p *platform.Platform, orders [][]graph.NodeID, noise *NoiseModel, sample int) *kernel {
	n, nd := g.NumTasks(), p.NumDevices()
	k := &kernel{
		n: n, nd: nd,
		exec:         make([]float64, nd*n),
		energyTab:    make([]float64, nd*n),
		numOrders:    len(orders),
		orders:       make([]int32, 0, len(orders)*n),
		inStart:      make([]int32, n+1),
		entryBytes:   make([]float64, n),
		host:         p.Default,
		taskArea:     make([]float64, n),
		devStreaming: make([]bool, nd),
		devArea:      make([]float64, nd),
		slotStart:    make([]int32, nd+1),
		pairLat:      make([]float64, nd*nd),
		pairBW:       make([]float64, nd*nd),
	}
	for d := 0; d < nd; d++ {
		dev := &p.Devices[d]
		df := 1.0
		if noise != nil {
			df = noise.DeviceFactor(sample, d)
		}
		for v := 0; v < n; v++ {
			e := ExecTime(g, graph.NodeID(v), dev)
			if noise != nil {
				e *= df * noise.ExecFactor(sample, v, d)
			}
			k.exec[d*n+v] = e
			k.energyTab[d*n+v] = k.exec[d*n+v] * dev.PowerW
		}
		k.devStreaming[d] = dev.Streaming
		k.devArea[d] = dev.Area
		k.slotStart[d+1] = k.slotStart[d]
		if !dev.Spatial {
			k.slotStart[d+1] += int32(dev.NumSlots())
		}
	}
	k.numSlots = int(k.slotStart[nd])
	k.pos = make([]int32, len(orders)*n)
	for o, order := range orders {
		for i, v := range order {
			k.orders = append(k.orders, int32(v))
			k.pos[o*n+int(v)] = int32(i)
		}
	}
	ne := 0
	for v := 0; v < n; v++ {
		ne += g.InDegree(graph.NodeID(v))
	}
	k.inFrom = make([]int32, 0, ne)
	k.inBytes = make([]float64, 0, ne)
	k.inSigma = make([]float64, 0, ne)
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		t := g.Task(id)
		k.taskArea[v] = t.Area
		if g.InDegree(id) == 0 {
			sb := t.SourceBytes
			if noise != nil {
				sb *= noise.EntryFactor(sample, v)
			}
			k.entryBytes[v] = sb
		}
		for _, ei := range g.InEdges(id) {
			ed := g.Edge(ei)
			bytes := ed.Bytes
			if noise != nil {
				bytes *= noise.EdgeFactor(sample, len(k.inFrom))
			}
			k.inFrom = append(k.inFrom, int32(ed.From))
			k.inBytes = append(k.inBytes, bytes)
			k.inSigma = append(k.inSigma, streamSigma(g, ed.From, id))
		}
		k.inStart[v+1] = int32(len(k.inFrom))
	}
	// Out-edge CSR: the in-edge CSR transposed, with outEdge pointing
	// back at the in-edge record so consumers can read bytes/sigma. The
	// incremental evaluator walks it to bound, for a moved task, how far
	// each of its not-yet-placed readers' dependence terms can shift
	// backward (see readerDelta in incremental.go).
	k.outStart = make([]int32, n+1)
	for i := range k.inFrom {
		k.outStart[k.inFrom[i]+1]++
	}
	for v := 0; v < n; v++ {
		k.outStart[v+1] += k.outStart[v]
	}
	k.outTo = make([]int32, len(k.inFrom))
	k.outEdge = make([]int32, len(k.inFrom))
	fill := make([]int32, n)
	for w := 0; w < n; w++ {
		for i := k.inStart[w]; i < k.inStart[w+1]; i++ {
			u := k.inFrom[i]
			at := k.outStart[u] + fill[u]
			fill[u]++
			k.outTo[at] = int32(w)
			k.outEdge[at] = i
		}
	}
	for a := 0; a < nd; a++ {
		for b := 0; b < nd; b++ {
			da, db := &p.Devices[a], &p.Devices[b]
			bw := da.Bandwidth
			if db.Bandwidth < bw {
				bw = db.Bandwidth
			}
			k.pairLat[a*nd+b] = da.Latency + db.Latency
			k.pairBW[a*nd+b] = bw
		}
	}
	return k
}

// simState is the per-goroutine mutable scratch of one kernel.
type simState struct {
	start, finish []float64
	free          []float64 // per-device slot next-free times, each device's segment ascending (see placeSlot)
	area          []float64
	mbuf          []int  // patched-mapping buffer for Op evaluation
	basePtr       *int   // identity of the Base currently copied into mbuf
	keybuf        []byte // cache-key scratch (one byte per task)

	// stamp/epoch discriminate, during a resumed simulation, tasks placed
	// by this run (read from start/finish) from tasks placed before the
	// resume point (read from the batch prefix): stamp[v] == epoch iff v
	// was placed by the current simOrderInc call.
	stamp []uint64
	epoch uint64

	// rel is preLB's per-device scratch: the slot time the patched tasks
	// release on each device they leave.
	rel []float64

	// patchMark/patchEpoch mark the tasks of the patch makespanInc is
	// evaluating: patchMark[v] == patchEpoch iff v is patched, the O(1)
	// membership test of preLB, readerShift and the replay's
	// per-placement bookkeeping.
	patchMark  []uint64
	patchEpoch uint64

	// moved is kernel.commit's scratch: the tasks of a committed patch
	// whose device actually changes.
	moved []graph.NodeID

	// res is the candidate's downstream residual (see kernel.residual).
	// It must describe the mapping whenever simOrder, simOrderInc or preLB
	// runs under a finite bound; makespan and makespanInc fill it.
	res []float64
}

func (k *kernel) newState() *simState {
	return &simState{
		start:     make([]float64, k.n),
		finish:    make([]float64, k.n),
		free:      make([]float64, k.numSlots),
		area:      make([]float64, k.nd),
		mbuf:      make([]int, k.n),
		keybuf:    make([]byte, k.n),
		stamp:     make([]uint64, k.n),
		rel:       make([]float64, k.nd),
		patchMark: make([]uint64, k.n),
		moved:     make([]graph.NodeID, 0, k.n),
		res:       make([]float64, k.n),
	}
}

// batchPrefix is the recorded simulation of a batch's shared base
// mapping: per order, the start/finish time of every task plus, per
// order position, the device-slot next-free times and the running
// makespan immediately before that position was placed. A patched
// candidate differs from the base only at its patched tasks, so each of
// its order simulations restores the checkpoint at the first patched
// position and replays only the suffix — on average half the schedule,
// on top of the early-exit savings. The prefix is written once (by the
// goroutine issuing the batch) and read concurrently by the workers.
type batchPrefix struct {
	start, finish []float64 // [o*n + v]
	// freeCkpt[(o*n + i)*numSlots + s] is slot s's next-free time before
	// order-o position i is placed, in simState.free's layout: each
	// device's segment ascending, so a checkpoint is the canonical form of
	// the devices' next-free multisets, which slotGap pairs position by
	// position.
	freeCkpt []float64
	msCkpt   []float64 // [o*n + i]

	// sufMax[o*(n+1)+i] is the maximum finish time over order-o positions
	// >= i of the recorded base (sufMax[..+n] = -Inf): what the
	// dominance bounds of incremental.go subtract their perturbation
	// from. sufMax[o*(n+1)] is order o's full recorded makespan. Filled
	// and kept consistent by rebaseOrder.
	sufMax []float64

	// baseM[v] is the device the recording placed task v on, in every
	// order — the reference the incremental bounds diff patches against.
	baseM []int32
}

func (k *kernel) newPrefix() *batchPrefix {
	on := k.numOrders * k.n
	return &batchPrefix{
		start:    make([]float64, on),
		finish:   make([]float64, on),
		freeCkpt: make([]float64, on*k.numSlots),
		msCkpt:   make([]float64, on),
		sufMax:   make([]float64, k.numOrders*(k.n+1)),
		baseM:    make([]int32, k.n),
	}
}

// feasible mirrors model.Evaluator.Feasible bit-for-bit (same per-device
// accumulation order).
func (k *kernel) feasible(st *simState, m []int) bool {
	for d := range st.area {
		st.area[d] = 0
	}
	overflow := false
	for v, d := range m {
		a := k.taskArea[v]
		if a == 0 {
			continue
		}
		if capacity := k.devArea[d]; capacity > 0 {
			st.area[d] += a
			if st.area[d] > capacity {
				overflow = true
			}
		}
	}
	return !overflow
}

// energy mirrors model.Evaluator.Energy bit-for-bit: the compute energy
// of mapping m in joules — each task's execution time multiplied by its
// device's active power, accumulated in task order (the products are
// precomputed in energyTab; the sum sequence is identical to the
// reference). Transfer and idle energy are not modeled. Infeasible
// mappings yield Infeasible. Unlike the makespan, the energy does not
// depend on the schedule set, so the result is always exact.
func (k *kernel) energy(st *simState, m []int) float64 {
	if !k.feasible(st, m) {
		return Infeasible
	}
	total := 0.0
	for v, d := range m {
		total += k.energyTab[d*k.n+v]
	}
	return total
}

// placeSlot occupies the earliest-free slot of one device's ascending
// slot segment (its head) until fin and re-inserts fin so the segment
// stays ascending. A list schedule reads a device's slots only through
// their smallest next-free time, so its times depend on each device's
// multiset of next-free times alone: reading the head of the sorted
// segment yields exactly the times of the reference simulation's
// earliest-free scan, whichever equal slot that scan picks.
func placeSlot(seg []float64, fin float64) {
	i := 1
	for ; i < len(seg) && seg[i] < fin; i++ {
		seg[i-1] = seg[i]
	}
	seg[i-1] = fin
}

// transfer is platform.TransferTime over the precomputed pair tables; the
// floating-point expression shape matches exactly.
func (k *kernel) transfer(a, b int, bytes float64) float64 {
	if a == b || bytes == 0 {
		return 0
	}
	pi := a*k.nd + b
	return k.pairLat[pi] + bytes/k.pairBW[pi]
}

// residual writes into st.res, for every task v, the longest chain of
// finish-to-finish deltas below v under the candidate mapping m, and
// returns m's contention-free critical path. An edge v -> w forces
// finish(w) >= finish(v) + delta, where delta is exec(w)/sigma across a
// co-mapped streaming edge (simOrder's drain constraint) and otherwise
// the transfer into w's device plus exec(w) there. So any replay of m
// that finishes v at fin has makespan >= fin + res[v], and every order's
// makespan is at least the critical path: the longest such chain from
// any task's exec (plus its entry data's transfer from the host). Both
// hold in real arithmetic; readers deflate them by loadSlack. Sweeping a
// schedule order (a topological order) backwards finalizes every reader
// before its producers, so the sweep is O(tasks + edges).
func (k *kernel) residual(st *simState, m []int) float64 {
	n, res, cp := k.n, st.res, 0.0
	order := k.orders[:n]
	for j := n - 1; j >= 0; j-- {
		v := int(order[j])
		dv := m[v]
		r := 0.0
		for e := k.outStart[v]; e < k.outStart[v+1]; e++ {
			w, ie := int(k.outTo[e]), k.outEdge[e]
			dw := m[w]
			x := k.exec[dw*n+w]
			if sigma := k.inSigma[ie]; dv == dw && sigma > 0 && k.devStreaming[dw] {
				x /= sigma
			} else {
				x += k.transfer(dv, dw, k.inBytes[ie])
			}
			if x += res[w]; x > r {
				r = x
			}
		}
		res[v] = r
		if x := k.transfer(k.host, dv, k.entryBytes[v]) + k.exec[dv*n+v] + r; x > cp {
			cp = x
		}
	}
	return cp
}

// simOrder simulates the o-th schedule order of mapping m from an empty
// schedule and returns its makespan; if the partial makespan, or a
// placed task's finish plus its downstream residual st.res (deflated by
// loadSlack), ever exceeds bound, it aborts and returns +Inf: the
// order's makespan exceeds bound. Every floating-point operation of a
// placement matches model.Evaluator.MakespanOrder in value and sequence,
// so completed simulations are bit-identical to the reference.
func (k *kernel) simOrder(st *simState, m []int, o int, bound float64) float64 {
	n, res := k.n, st.res
	var makespan float64
	for i := range st.free {
		st.free[i] = 0
	}
	start, finish, free := st.start, st.finish, st.free
	for _, v32 := range k.orders[o*n : (o+1)*n] {
		v := int(v32)
		d := m[v]
		ready := 0.0
		if eb := k.entryBytes[v]; eb > 0 {
			// Entry task: source data arrives from the host device.
			ready = k.transfer(k.host, d, eb)
		}
		var streamDrain float64 // extra finish constraint from streaming preds
		execD := k.exec[d*n : (d+1)*n]
		lo, hi := k.inStart[v], k.inStart[v+1]
		if k.devStreaming[d] {
			for i := lo; i < hi; i++ {
				u := int(k.inFrom[i])
				su, fu := start[u], finish[u]
				if m[u] == d {
					if sigma := k.inSigma[i]; sigma > 0 {
						// Dataflow streaming: v may begin once u emits its
						// first chunk, and must drain after u finishes.
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
				if t := finish[u] + k.transfer(m[u], d, k.inBytes[i]); t > ready {
					ready = t
				}
			}
		}
		startT := ready
		s0, s1 := k.slotStart[d], k.slotStart[d+1]
		if s0 < s1 && free[s0] > startT {
			startT = free[s0] // the device's earliest-free slot
		}
		fin := startT + execD[v]
		if streamDrain > fin {
			fin = streamDrain
		}
		if (fin+res[v])*loadSlack > bound {
			return math.Inf(1)
		}
		start[v], finish[v] = startT, fin
		if s0 < s1 {
			placeSlot(free[s0:s1], fin)
		}
		if fin > makespan {
			makespan = fin
			if makespan > bound {
				// The running makespan is monotone non-decreasing, so this
				// order's final makespan exceeds the bound: it can neither
				// become the schedule-set minimum (bound <= best completed
				// order) nor beat the caller's cutoff.
				return math.Inf(1)
			}
		}
	}
	return makespan
}

// buildPrefix records the full simulation of base into pre: the base
// row and every order's schedule, which rebaseOrder writes by replaying
// the whole order from an empty schedule (a zeroed row-0 checkpoint) —
// the one loop that also folds accepted moves in, and whose placement
// arithmetic simOrderInc repeats operation for operation when it resumes
// from the recording, so resumed suffixes continue bit-identically.
// Infeasibility of the base is irrelevant here — the prefix only
// supplies the shared schedule state.
func (k *kernel) buildPrefix(st *simState, base []int, pre *batchPrefix) {
	n, ns := k.n, k.numSlots
	for v, d := range base {
		pre.baseM[v] = int32(d)
	}
	for o := 0; o < k.numOrders; o++ {
		pre.sufMax[o*(n+1)+n] = math.Inf(-1)
		if n == 0 {
			continue // nothing to replay
		}
		clear(pre.freeCkpt[o*n*ns : (o*n+1)*ns])
		pre.msCkpt[o*n] = 0
		k.rebaseOrder(st, base, o, 0, pre)
	}
}

// makespan evaluates mapping m over the kernel's schedule set with
// bounded early exit, under the package's cutoff contract: Infeasible,
// else the exact schedule-set minimum (bit-identical to the reference
// simulation) when it is <= cutoff, else rejected(cutoff). It fills
// st.res for m once (kernel.residual) and rejects m outright when its
// critical path alone exceeds the cutoff; otherwise every order replays
// with the residual abort armed against the cutoff or the best completed
// order.
func (k *kernel) makespan(st *simState, m []int, cutoff float64) float64 {
	if !k.feasible(st, m) {
		return Infeasible
	}
	if k.residual(st, m)*loadSlack > cutoff {
		return rejected(cutoff)
	}
	best := math.Inf(1) // min over the orders; aborted ones are +Inf
	for o := 0; o < k.numOrders; o++ {
		bound := cutoff
		if best < bound {
			bound = best
		}
		if ms := k.simOrder(st, m, o, bound); ms < best {
			best = ms
		}
	}
	if best > cutoff {
		return rejected(cutoff)
	}
	return best
}
