package eval

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/platform"
)

// Options configure an Engine.
type Options struct {
	// Workers bounds the goroutines EvaluateBatch fans out over.
	// Zero (or negative) selects runtime.GOMAXPROCS(0).
	Workers int
}

// Engine evaluates mappings against one compiled kernel. In contrast to
// model.Evaluator, an Engine is immutable after construction and safe for
// concurrent use from any number of goroutines: every evaluation checks a
// private simulation state out of an internal pool. Single evaluations go
// through Makespan/MakespanCutoff; EvaluateBatch fans a slice of
// evaluation requests out over an internal worker pool of cloned states
// and returns an index-aligned result slice, so any reduction over the
// results is deterministic regardless of goroutine scheduling.
type Engine struct {
	k       *kernel
	workers int
	pool    *sync.Pool // *simState
	prePool *sync.Pool // *batchPrefix
	// g, p, orders retain the engine's construction inputs so derived
	// engines over perturbed cost models (the robust objective's
	// Monte-Carlo sample kernels, see NewEngineNoise and RobustObjective)
	// can be compiled for the same instance on demand.
	g      *graph.DAG
	p      *platform.Platform
	orders [][]graph.NodeID
	// cache, if non-nil, memoizes exact evaluation results across all
	// engines sharing it (see WithCache and type Cache).
	cache *Cache
	// bat, if non-nil, routes EvaluateBatch / EvaluateBatchCtx /
	// EvaluateBatchVec through a shared cross-caller coalescing batcher
	// (see WithBatcher and type Batcher).
	bat *Batcher
	// sink, if non-nil, accumulates batch wait/eval timing attributed to
	// this (derived) engine's batch calls (see WithBatchTiming).
	sink *BatchTiming
}

// NewEngine compiles an engine for (g, p) evaluating mappings as the
// minimum list-schedule makespan over the given topological orders. The
// schedule set is fixed at compile time, which keeps the cost function
// deterministic (paper §III-A). Orders must be topological orders of g;
// passing none selects the BFS order alone.
func NewEngine(g *graph.DAG, p *platform.Platform, orders [][]graph.NodeID, opt Options) *Engine {
	return newEngineNoise(g, p, orders, nil, 0, opt)
}

// NewEngineNoise compiles an engine whose kernel is the noise model's
// sample-th perturbed world: execution times (and energies) carry the
// model's per-(task, device) and per-device factors, transfer payloads
// the per-edge factors (see NoiseModel). Everything else — schedule
// set, batch semantics, determinism contract — matches NewEngine; in
// particular a perturbed engine evaluates at the nominal engine's cost,
// since the perturbation happens entirely at compile time.
func NewEngineNoise(g *graph.DAG, p *platform.Platform, orders [][]graph.NodeID, noise NoiseModel, sample int, opt Options) *Engine {
	return newEngineNoise(g, p, orders, &noise, sample, opt)
}

func newEngineNoise(g *graph.DAG, p *platform.Platform, orders [][]graph.NodeID, noise *NoiseModel, sample int, opt Options) *Engine {
	if len(orders) == 0 {
		orders = [][]graph.NodeID{g.BFSOrder()}
	}
	k := compileNoise(g, p, orders, noise, sample)
	return &Engine{
		k:       k,
		workers: normWorkers(opt.Workers),
		pool:    &sync.Pool{New: func() any { return k.newState() }},
		prePool: &sync.Pool{New: func() any { return k.newPrefix() }},
		g:       g,
		p:       p,
		orders:  orders,
	}
}

// NewEngineSchedules compiles an engine whose schedule set is the BFS
// order plus nRandom random topological orders drawn deterministically
// from seed — the same construction as model.Evaluator.WithSchedules
// (the paper's protocol uses nRandom = 100, §IV-A).
func NewEngineSchedules(g *graph.DAG, p *platform.Platform, nRandom int, seed int64, opt Options) *Engine {
	orders := make([][]graph.NodeID, 0, nRandom+1)
	orders = append(orders, g.BFSOrder())
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nRandom; i++ {
		orders = append(orders, g.RandomTopoOrder(rng.Intn))
	}
	return NewEngine(g, p, orders, opt)
}

func normWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// NumSchedules returns the size of the compiled schedule set.
func (e *Engine) NumSchedules() int { return e.k.numOrders }

// WithWorkers returns an engine sharing this engine's kernel, state
// pool and cache but fanning batches out over w goroutines (w <= 0
// selects GOMAXPROCS). The receiver is not modified.
func (e *Engine) WithWorkers(w int) *Engine {
	d := *e
	d.workers = normWorkers(w)
	return &d
}

// WithBatcher returns an engine sharing this engine's kernel, pools and
// cache whose EvaluateBatch / EvaluateBatchCtx / EvaluateBatchVec calls
// are routed through b, coalescing them with the batch calls of every
// other goroutine (and, in the mapping service, every other request)
// sharing the batcher into single underlying batch runs. Each op keeps
// its own cutoff, and every result is bit-identical to the direct
// path's. Only the batch entry points coalesce — single-op
// calls (Makespan, Evaluate, Incremental sessions) stay direct, since
// blocking a serial search loop on the flush deadline would cost
// latency without amortizing anything.
//
// The batcher must have been built (NewBatcher) from an engine with
// this engine's kernel and cache configuration; anything else is a
// programming error and panics. The receiver is not modified.
func (e *Engine) WithBatcher(b *Batcher) *Engine {
	if b != nil {
		if b.e.k != e.k {
			panic("eval: batcher is bound to a different kernel (graph, platform or schedule set)")
		}
		if b.e.cache != e.cache {
			panic("eval: batcher underlying engine has a different cache; derive the batcher from the cached engine")
		}
	}
	d := *e
	d.bat = b
	return &d
}

// WithBatchTiming returns an engine sharing everything with this one
// that additionally accumulates batch-call timing into t: the wall time
// each batch spent waiting for a flush (coalesced path only) and the
// evaluation time attributed to its ops. Typically one BatchTiming is
// attached per service request so the request's queue/batch/eval phases
// can be reported. The receiver is not modified; nil detaches.
func (e *Engine) WithBatchTiming(t *BatchTiming) *Engine {
	d := *e
	d.sink = t
	return &d
}

// Op is one evaluation request of a batch: the mapping Base with every
// task in Patch remapped to Device. A nil Patch evaluates Base as-is
// (no copy is made — Base must not be mutated while the batch runs).
// Sharing one Base slice across many patched ops is the intended cheap
// encoding for neighborhood searches.
type Op struct {
	Base   mapping.Mapping
	Patch  []graph.NodeID
	Device int
}

// getState checks a simulation state out of the pool. The base-mapping
// cache is only valid within one Engine call (callers may mutate a Base
// slice between calls), so it is invalidated here.
func (e *Engine) getState() *simState {
	st := e.pool.Get().(*simState)
	st.basePtr = nil
	return st
}

// Feasible reports whether m satisfies all device area capacities.
func (e *Engine) Feasible(m mapping.Mapping) bool {
	st := e.getState()
	ok := e.k.feasible(st, m)
	e.pool.Put(st)
	return ok
}

// Makespan returns the exact schedule-set makespan of m: the minimum
// list-schedule makespan over the compiled orders, bit-identical to the
// reference simulation. Infeasible mappings yield Infeasible.
func (e *Engine) Makespan(m mapping.Mapping) float64 {
	return e.MakespanCutoff(m, math.Inf(1))
}

// MakespanCutoff is Makespan with bounded early exit against a caller
// cutoff: any schedule whose partial makespan exceeds the cutoff (or the
// best completed schedule so far) is aborted. The result is Infeasible
// for an infeasible m, else bit-identical to Makespan when that is
// <= cutoff, else math.Nextafter(cutoff, +Inf) — the cutoff contract
// every evaluation entry point obeys. Mapper search loops pass their
// incumbent here to discard non-improving candidates at a fraction of a
// full evaluation's cost.
func (e *Engine) MakespanCutoff(m mapping.Mapping, cutoff float64) float64 {
	st := e.getState()
	ms := e.evalOp(st, Op{Base: m}, cutoff, nil, nil, nil)
	e.pool.Put(st)
	return ms
}

// Energy returns the compute energy of m in joules, bit-identical to
// model.Evaluator.Energy: each task's execution time multiplied by its
// device's active power (transfer and idle energy are not modeled;
// documented simplification). Infeasible mappings yield Infeasible. The
// energy does not depend on the schedule set, so the result is always
// exact — there is no cutoff variant.
func (e *Engine) Energy(m mapping.Mapping) float64 {
	st := e.getState()
	en := e.k.energy(st, m)
	e.pool.Put(st)
	return en
}

// Evaluate evaluates a single op under a cutoff (see MakespanCutoff for
// the cutoff contract).
func (e *Engine) Evaluate(op Op, cutoff float64) float64 {
	st := e.getState()
	ms := e.evalOp(st, op, cutoff, nil, nil, nil)
	e.pool.Put(st)
	return ms
}

// EvaluateBatch evaluates every op and returns the index-aligned
// makespans. Ops are distributed over min(Workers, len(ops)) goroutines
// with private simulation states; each result obeys the MakespanCutoff
// contract. The output depends only on the inputs — never on goroutine
// scheduling — so deterministic reductions (argmin with index
// tie-breaking, GA selection, ...) stay deterministic. On an engine
// derived via WithBatcher the ops are coalesced with other callers'
// batches (same results, see Batcher).
func (e *Engine) EvaluateBatch(ops []Op, cutoff float64) []float64 {
	out := make([]float64, len(ops))
	e.batchCore(nil, ops, cutoff, out, nil)
	return out
}

// batchCore is the shared body of the makespan/energy batch entry
// points (EvaluateBatch, EvaluateBatchCtx, EvaluateBatchVec): the
// batcher-vs-direct dispatch with out receiving makespans and en, if
// non-nil, the fused per-op energies. A non-nil ctx cancels the batch
// between ops (see EvaluateBatchCtx). The direct path records its wall
// time into the engine's timing sink when one is set.
func (e *Engine) batchCore(ctx context.Context, ops []Op, cutoff float64, out, en []float64) error {
	if e.bat != nil {
		return e.bat.submit(ctx, ops, cutoff, out, en, e.sink)
	}
	if e.sink == nil {
		return e.runBatchCtx(ctx, ops, cutoff, nil, out, en)
	}
	start := time.Now()
	err := e.runBatchCtx(ctx, ops, cutoff, nil, out, en)
	e.sink.record(0, time.Since(start).Nanoseconds(), len(ops), 1)
	return err
}

// energyBatch fills out with the exact compute energies of the ops'
// (patched) mappings — the standalone path of the energy objective when
// no makespan column pays for the simulation. Energies do not depend on
// the schedule set, so the loop is a cheap O(n) table scan per op and
// never goes through the worker pool or the cache.
func (e *Engine) energyBatch(ops []Op, out []float64) {
	st := e.getState()
	defer e.pool.Put(st)
	for i := range ops {
		op := &ops[i]
		if len(op.Patch) == 0 {
			out[i] = e.k.energy(st, op.Base)
			continue
		}
		if st.basePtr != &op.Base[0] {
			copy(st.mbuf, op.Base)
			st.basePtr = &op.Base[0]
		}
		for _, v := range op.Patch {
			st.mbuf[v] = op.Device
		}
		out[i] = e.k.energy(st, st.mbuf)
		for _, v := range op.Patch {
			st.mbuf[v] = op.Base[v]
		}
	}
}

// EvaluateBatchCtx is EvaluateBatch with cancellation: once ctx is
// cancelled, no further op of the batch starts evaluating (ops already
// running on a worker finish — a single op is not interruptible). Result
// slots of ops that never ran hold NaN and the context's error is
// returned; a nil error certifies every slot is a valid MakespanCutoff
// result. Cancellation leaves the engine's state pools clean: every
// checked-out simulation state is returned regardless of where the
// batch stopped, so an abandoned request cannot poison later ones.
func (e *Engine) EvaluateBatchCtx(ctx context.Context, ops []Op, cutoff float64) ([]float64, error) {
	out := make([]float64, len(ops))
	for i := range out {
		out[i] = math.NaN()
	}
	err := e.batchCore(ctx, ops, cutoff, out, nil)
	return out, err
}

// lazyPrefix defers recording a shared base mapping's simulation until
// a simulation actually needs it: with a warm evaluation cache most (or
// all) ops of a batch are served without simulating, and an eagerly
// recorded prefix would cost a full uncut evaluation for nothing. The
// build runs at most once (sync.Once publishes the prefix safely to
// every concurrently-missing worker).
type lazyPrefix struct {
	once sync.Once
	e    *Engine
	base mapping.Mapping
	pre  *batchPrefix
}

// get returns the recorded prefix, building it on first use.
func (lp *lazyPrefix) get() *batchPrefix {
	lp.once.Do(func() {
		lp.pre = lp.e.prePool.Get().(*batchPrefix)
		st := lp.e.getState()
		lp.e.k.buildPrefix(st, lp.base, lp.pre)
		lp.e.pool.Put(st)
	})
	return lp.pre
}

// release returns the recorded prefix, if any, to the pool.
func (lp *lazyPrefix) release() {
	if lp != nil && lp.pre != nil {
		lp.e.prePool.Put(lp.pre)
		lp.pre = nil
	}
}

// opCutoff selects op i's cutoff: the per-op slice when present (the
// coalescing batcher mixes callers with different cutoffs in one
// flush), otherwise the shared scalar.
func opCutoff(cutoff float64, cutoffs []float64, i int) float64 {
	if cutoffs != nil {
		return cutoffs[i]
	}
	return cutoff
}

// prefixBuildThreshold is the number of patched ops sharing one base at
// which a batch records that base's prefix: recording costs about one
// uncut full evaluation and saves roughly half of each subsequent one.
const prefixBuildThreshold = 3

// runBatchCtx is the shared worker-pool body of all batch entry points;
// en, if non-nil, receives per-op energies; cutoffs, if non-nil,
// overrides the scalar cutoff per op. A non-nil ctx enables
// cancellation between ops: on cancellation the remaining ops are left
// unevaluated (their out slots untouched) and ctx.Err() is returned.
// All simulation states are returned to the pool on every path.
func (e *Engine) runBatchCtx(ctx context.Context, ops []Op, cutoff float64, cutoffs, out, en []float64) error {

	// Patched ops of a batch overwhelmingly share one base mapping (a
	// neighborhood search around the incumbent). Record that base's full
	// simulation once — lazily, on the first op a cache (if any) cannot
	// serve; every sharing op then resumes each order at its first
	// patched position instead of replaying the common prefix. Recording
	// costs about one uncut evaluation, so it only pays off once enough
	// patched ops share the base.
	var pre *lazyPrefix
	var preBase *int
	shared := 0
	for i := range ops {
		if len(ops[i].Patch) == 0 {
			continue
		}
		if preBase == nil {
			preBase = &ops[i].Base[0]
		}
		if preBase == &ops[i].Base[0] {
			if shared++; shared >= prefixBuildThreshold {
				pre = &lazyPrefix{e: e, base: ops[i].Base}
				break
			}
		}
	}
	defer pre.release()

	workers := e.workers
	if workers > len(ops) {
		workers = len(ops)
	}
	if workers <= 1 {
		st := e.getState()
		defer e.pool.Put(st)
		for i := range ops {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			out[i] = e.evalOp(st, ops[i], opCutoff(cutoff, cutoffs, i), pre, preBase, enPtr(en, i))
		}
		return nil
	}
	var next int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			st := e.getState()
			defer e.pool.Put(st)
			for {
				if ctx != nil && ctx.Err() != nil {
					aborted.Store(true)
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(ops) {
					return
				}
				out[i] = e.evalOp(st, ops[i], opCutoff(cutoff, cutoffs, i), pre, preBase, enPtr(en, i))
			}
		}()
	}
	wg.Wait()
	if aborted.Load() {
		return ctx.Err()
	}
	return nil
}

// enPtr selects the i-th energy output slot, or nil when energies are
// not requested.
func enPtr(en []float64, i int) *float64 {
	if en == nil {
		return nil
	}
	return &en[i]
}

// evalOp materializes op's mapping (patching into the state's private
// buffer when needed) and runs the bounded makespan evaluation. pre, if
// non-nil, is the (lazily recorded) simulation of the base mapping
// identified by preBase; ops patched on that base resume from it. en,
// if non-nil, additionally receives the materialized mapping's compute
// energy (always exact; Infeasible exactly when the makespan is).
func (e *Engine) evalOp(st *simState, op Op, cutoff float64, pre *lazyPrefix, preBase *int, en *float64) float64 {
	m := []int(op.Base)
	if len(op.Patch) > 0 {
		// Copy the base once per distinct Base slice; consecutive ops of a
		// neighborhood search share it, so the copy amortizes away and only
		// the patched entries are written and rolled back.
		if st.basePtr != &op.Base[0] {
			copy(st.mbuf, op.Base)
			st.basePtr = &op.Base[0]
		}
		for _, v := range op.Patch {
			st.mbuf[v] = op.Device
		}
		var ms float64
		sim := func() float64 {
			if pre != nil && preBase == &op.Base[0] {
				return e.k.makespanInc(st, st.mbuf, op.Patch, pre.get(), cutoff, true)
			}
			return e.k.makespan(st, st.mbuf, cutoff)
		}
		if e.cache != nil {
			ms = e.cachedEval(st, st.mbuf, cutoff, en, sim)
		} else {
			ms = sim()
			if en != nil {
				*en = e.k.energy(st, st.mbuf)
			}
		}
		for _, v := range op.Patch {
			st.mbuf[v] = op.Base[v]
		}
		return ms
	}
	if e.cache != nil {
		return e.cachedEval(st, m, cutoff, en, func() float64 { return e.k.makespan(st, m, cutoff) })
	}
	ms := e.k.makespan(st, m, cutoff)
	if en != nil {
		*en = e.k.energy(st, m)
	}
	return ms
}
