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
// set, so each order's simulation aborts as soon as its partial makespan
// exceeds the best completed order so far (or a caller-supplied cutoff).
// Results are bit-identical to the straightforward simulation for every
// value at or below the cutoff, which keeps the greedy mappers'
// deterministic-cost termination guarantee (paper §III-A) intact.
package eval

import (
	"math"

	"spmap/internal/graph"
	"spmap/internal/platform"
)

// Infeasible is the makespan reported for mappings that violate device
// area capacities. It equals model.Infeasible.
const Infeasible = math.MaxFloat64

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
// in simState.
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
	devSpatial   []bool
	devArea      []float64 // capacity; 0 = unconstrained
	// slotStart[d]..slotStart[d+1] are device d's slots in the flattened
	// next-free array.
	slotStart []int32
	numSlots  int
	// invSlots[d] is 1/numSlots(d) for non-spatial devices and 0 for
	// spatial ones — the capacity factor of the incremental evaluator's
	// load lower bound (see incremental.go).
	invSlots []float64

	// Star-interconnect transfer constants per ordered device pair
	// (a*nd+b): pairLat is the summed per-hop setup latency, pairBW the
	// bottleneck bandwidth. The transfer time of a non-local, non-empty
	// move is pairLat + bytes/pairBW — the same expression, evaluated in
	// the same order, as platform.TransferTime.
	pairLat []float64
	pairBW  []float64

	// maxOutPos[o*n+v] is, within order o, the last position that reads
	// task v's placement: the maximum order-o position over v itself and
	// all of v's consumers. It is the static half of the incremental
	// evaluator's dirty-path bound (see incremental.go): once a resumed
	// simulation passes this position for every mutated task, no
	// remaining task can observe the mutation through a data edge, and
	// only the device-slot state can still differ from the memoized base
	// recording. Mapping-independent, so it lives on the kernel.
	maxOutPos []int32
	// bres[v] is the downstream path residual: a mapping-free lower
	// bound on the schedule time after v's finish (built in compile,
	// used by the incremental evaluator's path rejection bound).
	bres []float64
}

// compile flattens (g, p, orders) into a kernel. The orders must be
// topological orders of g covering every task.
func compile(g *graph.DAG, p *platform.Platform, orders [][]graph.NodeID) *kernel {
	return compileNoise(g, p, orders, nil, 0)
}

// compileNoise is compile with an optional noise perturbation: non-nil
// noise multiplies the execution-time table (and with it the energy
// table and the downstream-residual bounds derived from it), the
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
		devSpatial:   make([]bool, nd),
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
		k.devSpatial[d] = dev.Spatial
		k.devArea[d] = dev.Area
		k.slotStart[d+1] = k.slotStart[d] + int32(dev.NumSlots())
	}
	k.numSlots = int(k.slotStart[nd])
	k.invSlots = make([]float64, nd)
	for d := 0; d < nd; d++ {
		if !k.devSpatial[d] {
			k.invSlots[d] = 1 / float64(k.slotStart[d+1]-k.slotStart[d])
		}
	}
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
	// Consumer-position index: transpose the in-edge CSR per order. A
	// task's own position is the floor (a move of v always re-places v
	// itself).
	k.maxOutPos = make([]int32, len(orders)*n)
	for o := range orders {
		row := k.maxOutPos[o*n : (o+1)*n]
		posRow := k.pos[o*n : (o+1)*n]
		for v := 0; v < n; v++ {
			row[v] = posRow[v]
		}
		for v := 0; v < n; v++ {
			pv := posRow[v]
			for i := k.inStart[v]; i < k.inStart[v+1]; i++ {
				if u := k.inFrom[i]; pv > row[u] {
					row[u] = pv
				}
			}
		}
	}
	// Downstream residuals: bres[v] lower-bounds, over every possible
	// mapping, the schedule time that must elapse after v finishes —
	// the longest chain of per-edge finish-to-finish deltas below v.
	// Each dependence edge u -> w forces finish(w) >= finish(u) + delta
	// with delta = exec(w on its device) in the blocking case or
	// exec(w)/sigma in the streaming case (the drain constraint), so the
	// mapping-free delta is min(min_d exec, min_{streaming d} exec/sigma).
	// Any placed task v therefore certifies makespan >= finish(v) +
	// bres[v] — the path lower bound the incremental evaluator uses to
	// reject over-cutoff candidates without replaying their schedules
	// (see incremental.go).
	k.bres = make([]float64, n)
	if k.numOrders > 0 {
		minExec := make([]float64, n)
		minExecStream := make([]float64, n)
		for v := 0; v < n; v++ {
			me, ms := math.Inf(1), math.Inf(1)
			for d := 0; d < nd; d++ {
				e := k.exec[d*n+v]
				if e < me {
					me = e
				}
				if k.devStreaming[d] && e < ms {
					ms = e
				}
			}
			minExec[v], minExecStream[v] = me, ms
		}
		// Any schedule order is a topological order; sweeping one in
		// reverse finalizes every reader before its producers.
		ord := k.orders[:n]
		for j := n - 1; j >= 0; j-- {
			w := int(ord[j])
			bw := k.bres[w]
			for i := k.inStart[w]; i < k.inStart[w+1]; i++ {
				u := int(k.inFrom[i])
				dm := minExec[w]
				if sigma := k.inSigma[i]; sigma > 0 && !math.IsInf(minExecStream[w], 1) {
					if x := minExecStream[w] / sigma; x < dm {
						dm = x
					}
				}
				if x := bw + dm; x > k.bres[u] {
					k.bres[u] = x
				}
			}
		}
	}
	return k
}

// simState is the per-goroutine mutable scratch of one kernel.
type simState struct {
	start, finish []float64
	free          []float64 // flattened per-device slot next-free times
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

	// load/freeSum are the incremental evaluator's per-device capacity
	// scratch: remaining execution load of the unplaced order suffix and
	// the running sum of slot next-free times (see incremental.go).
	load    []float64
	freeSum []float64

	// sortA/sortB are the dominance check's per-device slot sorting
	// scratch (see slotsDominate in incremental.go).
	sortA, sortB []float64

	// cpbuf is the composed-patch scratch of the incremental session's
	// lazy apply: the caller's patch extended with an order's pending
	// not-yet-folded moves (see kernel.composed in incremental.go).
	cpbuf []graph.NodeID
}

func (k *kernel) newState() *simState {
	return &simState{
		start:   make([]float64, k.n),
		finish:  make([]float64, k.n),
		free:    make([]float64, k.numSlots),
		area:    make([]float64, k.nd),
		mbuf:    make([]int, k.n),
		keybuf:  make([]byte, k.n),
		stamp:   make([]uint64, k.n),
		load:    make([]float64, k.nd),
		freeSum: make([]float64, k.nd),
		sortA:   make([]float64, k.numSlots),
		sortB:   make([]float64, k.numSlots),
		cpbuf:   make([]graph.NodeID, 0, k.n),
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
	freeCkpt      []float64 // [(o*n + i)*numSlots + s]
	msCkpt        []float64 // [o*n + i]

	// sufMax[o*(n+1)+i] is the maximum finish time over order-o positions
	// >= i of the recorded base (sufMax[..+n] = -Inf). It is the
	// memoized contribution of the untouched suffix: a resumed simulation
	// whose schedule state reconverges with the recording at position i
	// has final makespan max(running, sufMax[i]) without replaying the
	// suffix (see incremental.go). sufMax[o*(n+1)] is order o's full
	// recorded makespan. Filled by buildPrefix; kept consistent by
	// Incremental.Apply's windowed rebase.
	sufMax []float64

	// baseMO[o*n+v] is the device the order-o recording placed task v on —
	// the reference the incremental bounds diff patches against. The rows
	// start identical (buildPrefix) but diverge under the incremental
	// session's lazy apply, which folds accepted moves into each order's
	// recording only when that order is actually evaluated again (see
	// Incremental.Apply and kernel.applyOrder in incremental.go).
	baseMO []int32
	// sufLoad[(o*(n+1)+i)*nd+d] is the total execution time, on device d,
	// of the order-o tasks at positions >= i under baseMO's order-o row
	// (row n is all zeros). It feeds the capacity lower bound (see
	// incremental.go):
	// at a resume position the remaining per-device load divided by the
	// device's slot count bounds the order makespan from below, killing
	// over-cutoff candidates without replaying them. Unlike the schedule
	// recording it is pure arithmetic over (order, mapping), so
	// Incremental.Apply keeps it exactly up to date with the same
	// suffix-sum recurrence buildPrefix uses (bit-identical, drift-free).
	sufLoad []float64
}

func (k *kernel) newPrefix() *batchPrefix {
	on := k.numOrders * k.n
	return &batchPrefix{
		start:    make([]float64, on),
		finish:   make([]float64, on),
		freeCkpt: make([]float64, on*k.numSlots),
		msCkpt:   make([]float64, on),
		sufMax:   make([]float64, k.numOrders*(k.n+1)),
		baseMO:   make([]int32, on),
		sufLoad:  make([]float64, k.numOrders*(k.n+1)*k.nd),
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

// transfer is platform.TransferTime over the precomputed pair tables; the
// floating-point expression shape matches exactly.
func (k *kernel) transfer(a, b int, bytes float64) float64 {
	if a == b || bytes == 0 {
		return 0
	}
	pi := a*k.nd + b
	return k.pairLat[pi] + bytes/k.pairBW[pi]
}

// simOrder simulates the o-th schedule order of mapping m from an empty
// schedule. It returns the makespan and true if the simulation ran to
// completion; if the partial makespan ever exceeds bound, it aborts and
// returns (partial, false). Every floating-point operation matches
// model.Evaluator.MakespanOrder in value and sequence, so completed
// simulations are bit-identical to the reference.
//
// When rec is non-nil the simulation additionally records order o into
// it — per-task start/finish plus per-position slot/makespan checkpoints
// — for later resumption (see buildPrefix); recording requires an
// infinite bound and routes the task times into rec's arrays so the one
// placement loop serves both modes and cannot drift.
func (k *kernel) simOrder(st *simState, m []int, o int, bound float64, rec *batchPrefix) (float64, bool) {
	n := k.n
	var makespan float64
	for i := range st.free {
		st.free[i] = 0
	}
	start, finish, free := st.start, st.finish, st.free
	if rec != nil {
		// Record mode: task times land in the recording's per-order rows.
		start = rec.start[o*n : (o+1)*n]
		finish = rec.finish[o*n : (o+1)*n]
	}
	for pi, v32 := range k.orders[o*n : (o+1)*n] {
		if rec != nil {
			copy(rec.freeCkpt[(o*n+pi)*k.numSlots:(o*n+pi+1)*k.numSlots], free)
			rec.msCkpt[o*n+pi] = makespan
		}
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
		slot := -1
		if !k.devSpatial[d] {
			// Earliest-free slot of the device.
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
		start[v], finish[v] = startT, fin
		if slot >= 0 {
			free[slot] = fin
		}
		if fin > makespan {
			makespan = fin
			if makespan > bound {
				// The running makespan is monotone non-decreasing, so this
				// order's final makespan is >= the bound: it can neither
				// become the schedule-set minimum (bound <= best completed
				// order) nor beat the caller's cutoff.
				return makespan, false
			}
		}
	}
	return makespan, true
}

// buildPrefix records the full (no early exit) simulation of base into
// pre: per-order start/finish times plus per-position slot and makespan
// checkpoints, via simOrder's record mode, whose placement arithmetic
// simOrderInc repeats operation for operation when it resumes from the
// recording, so resumed suffixes continue bit-identically. Infeasibility
// of the base is irrelevant here — the prefix only supplies the shared
// schedule state.
func (k *kernel) buildPrefix(st *simState, base []int, pre *batchPrefix) {
	n, nd := k.n, k.nd
	for o := 0; o < k.numOrders; o++ {
		row := pre.baseMO[o*n : (o+1)*n]
		for v, d := range base {
			row[v] = int32(d)
		}
		k.simOrder(st, base, o, math.Inf(1), pre)
		suf := pre.sufMax[o*(n+1) : (o+1)*(n+1)]
		suf[n] = math.Inf(-1)
		finish := pre.finish[o*n : (o+1)*n]
		order := k.orders[o*n : (o+1)*n]
		for j := n - 1; j >= 0; j-- {
			suf[j] = suf[j+1]
			if f := finish[order[j]]; f > suf[j] {
				suf[j] = f
			}
		}
		// Suffix loads, by the same reverse recurrence Incremental.Apply
		// re-derives dirty rows with (each row = the row above plus one
		// task), so a rebuilt row is bit-identical to a fresh build.
		sl := pre.sufLoad[o*(n+1)*nd : (o+1)*(n+1)*nd]
		for d := 0; d < nd; d++ {
			sl[n*nd+d] = 0
		}
		for j := n - 1; j >= 0; j-- {
			copy(sl[j*nd:(j+1)*nd], sl[(j+1)*nd:(j+2)*nd])
			v := int(order[j])
			d := base[v]
			sl[j*nd+d] += k.exec[d*n+v]
		}
	}
}

// makespan evaluates mapping m over the kernel's schedule set with
// bounded early exit. The result is the exact schedule-set minimum
// (bit-identical to the reference simulation) whenever it is <= cutoff;
// otherwise some partial lower bound > cutoff is returned. Infeasible
// mappings yield Infeasible.
func (k *kernel) makespan(st *simState, m []int, cutoff float64) float64 {
	if !k.feasible(st, m) {
		return Infeasible
	}
	best := math.Inf(1)     // min over completed orders
	minAbort := math.Inf(1) // min over aborted partials (all > cutoff-ish)
	for o := 0; o < k.numOrders; o++ {
		bound := cutoff
		if best < bound {
			bound = best
		}
		ms, complete := k.simOrder(st, m, o, bound, nil)
		if complete {
			if ms < best {
				best = ms
			}
		} else if ms < minAbort {
			minAbort = ms
		}
	}
	if !math.IsInf(best, 1) {
		return best
	}
	// Every order aborted against the caller's cutoff; report the smallest
	// partial makespan observed. It exceeds the cutoff by construction and
	// lower-bounds the true makespan.
	return minAbort
}
