package eval

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// BatcherOptions configure a Batcher; zero values select the defaults.
type BatcherOptions struct {
	// MaxBatch flushes the pending ops as soon as this many have
	// accumulated (default 128).
	MaxBatch int
	// MaxWait flushes a partial batch this long after its first op
	// arrived (default 1ms). Zero selects the default; a coalescing
	// batcher with no wait would never coalesce anything.
	MaxWait time.Duration
	// Buffer is the submission channel capacity (default 4x MaxBatch).
	// Submitters beyond it block until the collector catches up —
	// deliberate backpressure, not an error.
	Buffer int
}

// Batcher coalesces batch-evaluation calls from any number of
// goroutines — in the mapping service, from different concurrent
// requests — into single underlying engine batch runs: ops accumulate
// on a channel and are flushed to one runBatchCtx call either when
// MaxBatch of them are pending or MaxWait after the first arrived,
// whichever comes first. Each submitted op carries its own cutoff and a
// private response channel, and every result is bit-identical to the
// direct EvaluateBatch result: coalescing changes which flush carries
// an op, never its value. Cross-request amortization comes from three
// places: wider batches keep the engine's worker pool busy instead of
// paying fan-out per tiny request, one flush records at most one
// shared-base prefix, and a shared cache is consulted once per distinct
// mapping per flush wave instead of once per request thread.
//
// A Batcher is bound to the engine it was built from (kernel, cache,
// workers); attach it to derived engines with Engine.WithBatcher. Close
// drains: pending and queued ops are still flushed and answered, and
// submissions after Close fall back to the direct path, so shutdown
// never loses or hangs a request.
type Batcher struct {
	e        *Engine
	maxBatch int
	maxWait  time.Duration

	ch      chan batchItem
	done    chan struct{}
	drained chan struct{}

	mu     sync.RWMutex // guards closed against in-flight submissions
	closed bool

	tokens atomic.Int64 // distinct submit-call tokens (cross-caller telemetry)

	flushes, items           atomic.Int64
	sizeFlushes, waitFlushes atomic.Int64
	crossFlushes             atomic.Int64 // flushes carrying >1 submit call
	maxFlush                 atomic.Int64
}

// batchItem is one queued op with its response channel.
type batchItem struct {
	op       Op
	cutoff   float64
	ctx      context.Context // nil = never cancelled
	caller   int64           // submit-call token
	wantEn   bool
	sink     *BatchTiming
	enqueued time.Time
	res      chan batchOut
}

// batchOut is one op's result.
type batchOut struct {
	ms, en float64
	err    error
}

// NewBatcher builds a coalescing batcher flushing into e's batch path.
// e should be the fully configured warm engine (cache attached, worker
// pool sized); engines that route through the batcher must share that
// configuration (WithBatcher checks).
func NewBatcher(e *Engine, opt BatcherOptions) *Batcher {
	if e.bat != nil {
		panic("eval: NewBatcher on an engine that already routes through a batcher")
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 128
	}
	if opt.MaxWait <= 0 {
		opt.MaxWait = time.Millisecond
	}
	if opt.Buffer <= 0 {
		opt.Buffer = 4 * opt.MaxBatch
	}
	b := &Batcher{
		e:        e,
		maxBatch: opt.MaxBatch,
		maxWait:  opt.MaxWait,
		ch:       make(chan batchItem, opt.Buffer),
		done:     make(chan struct{}),
		drained:  make(chan struct{}),
	}
	go b.loop()
	return b
}

// Close stops the collector after draining: every already-submitted op
// is flushed and answered first. Afterwards engines routing through the
// batcher evaluate directly (uncoalesced). Close is idempotent and safe
// to call while submissions are in flight.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.drained
		return
	}
	b.closed = true
	b.mu.Unlock()
	// No submitter can be mid-send now (sends hold the read lock), so
	// the collector's final drain of the channel is complete.
	close(b.done)
	<-b.drained
}

// BatcherStats is a telemetry snapshot. Like cache telemetry, the
// counters depend on wall-clock interleaving (how many ops happen to
// share a flush) and are excluded from determinism contracts.
type BatcherStats struct {
	// Flushes counts underlying batch runs; Items the ops carried.
	Flushes, Items int64
	// SizeFlushes were triggered by a full batch, WaitFlushes by the
	// MaxWait deadline.
	SizeFlushes, WaitFlushes int64
	// CrossFlushes counts flushes that coalesced ops from more than one
	// submit call — the cross-request amortization the batcher exists
	// for. MaxFlush is the largest flush seen.
	CrossFlushes, MaxFlush int64
}

// Stats returns a telemetry snapshot.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Flushes:      b.flushes.Load(),
		Items:        b.items.Load(),
		SizeFlushes:  b.sizeFlushes.Load(),
		WaitFlushes:  b.waitFlushes.Load(),
		CrossFlushes: b.crossFlushes.Load(),
		MaxFlush:     b.maxFlush.Load(),
	}
}

// submit queues ops for coalesced evaluation and blocks until every
// result arrived, filling out (and en when non-nil). Each op carries
// cutoff and ctx; a ctx cancelled before an op's flush starts yields a
// NaN slot and submit returns ctx.Err() (ops whose flush already began
// complete normally — cancellation granularity is one flush). After
// Close the ops are evaluated directly instead.
func (b *Batcher) submit(ctx context.Context, ops []Op, cutoff float64, out, en []float64, sink *BatchTiming) error {
	if len(ops) == 0 {
		return nil
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return b.e.batchCore(ctx, ops, cutoff, out, en)
	}
	token := b.tokens.Add(1)
	now := time.Now()
	chans := make([]chan batchOut, len(ops))
	for i := range ops {
		chans[i] = make(chan batchOut, 1)
		b.ch <- batchItem{
			op: ops[i], cutoff: cutoff, ctx: ctx, caller: token,
			wantEn: en != nil, sink: sink, enqueued: now, res: chans[i],
		}
	}
	b.mu.RUnlock()
	var err error
	for i := range chans {
		o := <-chans[i]
		if o.err != nil {
			// Leave the caller's prefill (NaN on the ctx entry points)
			// in place: an errored op has no result.
			err = o.err
			continue
		}
		out[i] = o.ms
		if en != nil {
			en[i] = o.en
		}
	}
	return err
}

// loop is the collector goroutine: it accumulates items and flushes on
// size, deadline, or shutdown.
func (b *Batcher) loop() {
	defer close(b.drained)
	pending := make([]batchItem, 0, b.maxBatch)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var timerC <-chan time.Time
	flush := func(why *atomic.Int64) {
		why.Add(1)
		b.flush(pending)
		for i := range pending {
			pending[i] = batchItem{} // drop refs for the GC
		}
		pending = pending[:0]
	}
	for {
		select {
		case it := <-b.ch:
			if len(pending) == 0 {
				timer.Reset(b.maxWait)
				timerC = timer.C
			}
			pending = append(pending, it)
			if len(pending) >= b.maxBatch {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timerC = nil
				flush(&b.sizeFlushes)
			}
		case <-timerC:
			timerC = nil
			flush(&b.waitFlushes)
		case <-b.done:
			// Close's lock barrier guarantees no submitter is mid-send:
			// drain whatever is queued, flush, and exit.
			for {
				select {
				case it := <-b.ch:
					pending = append(pending, it)
					if len(pending) >= b.maxBatch {
						flush(&b.sizeFlushes)
					}
					continue
				default:
				}
				break
			}
			if len(pending) > 0 {
				flush(&b.waitFlushes)
			}
			return
		}
	}
}

// flush evaluates one accumulated batch and answers every item. Items
// whose context died while queued are answered with the context error
// without burning evaluation budget.
func (b *Batcher) flush(items []batchItem) {
	n := len(items)
	b.flushes.Add(1)
	b.items.Add(int64(n))
	for max := b.maxFlush.Load(); int64(n) > max; max = b.maxFlush.Load() {
		if b.maxFlush.CompareAndSwap(max, int64(n)) {
			break
		}
	}
	cross := false
	for i := 1; i < n; i++ {
		if items[i].caller != items[0].caller {
			cross = true
			break
		}
	}
	if cross {
		b.crossFlushes.Add(1)
	}

	ops := make([]Op, 0, n)
	cutoffs := make([]float64, 0, n)
	live := make([]int, 0, n)
	wantEn := false
	for i := range items {
		it := &items[i]
		if it.ctx != nil && it.ctx.Err() != nil {
			it.res <- batchOut{err: it.ctx.Err()}
			continue
		}
		ops = append(ops, it.op)
		cutoffs = append(cutoffs, it.cutoff)
		live = append(live, i)
		if it.wantEn {
			wantEn = true
		}
	}
	if len(ops) == 0 {
		return
	}
	var en []float64
	if wantEn {
		en = make([]float64, len(ops))
	}
	out := make([]float64, len(ops))
	start := time.Now()
	b.e.runBatchCtx(nil, ops, 0, cutoffs, out, en)
	evalNS := time.Since(start).Nanoseconds()
	perOpNS := evalNS / int64(len(ops))
	for j, i := range live {
		it := &items[i]
		if it.sink != nil {
			it.sink.record(start.Sub(it.enqueued).Nanoseconds(), perOpNS, 1, 0)
		}
		o := batchOut{ms: out[j]}
		if en != nil {
			o.en = en[j]
		}
		it.res <- o
	}
	// Attribute the flush to the first live item's sink so flush counts
	// stay meaningful per request without double-counting.
	if it := &items[live[0]]; it.sink != nil {
		it.sink.record(0, 0, 0, 1)
	}
}

// BatchTiming accumulates the batch-phase timing of one logical caller
// (one service request): total wall time its ops waited for a flush,
// the evaluation time attributed to them (per-op share of each flush,
// or the whole run on the direct path), the op count, and the number of
// flushes/runs that carried them. Concurrency-safe; attach with
// Engine.WithBatchTiming.
type BatchTiming struct {
	waitNS, evalNS, ops, flushes atomic.Int64
}

// record adds one observation.
func (t *BatchTiming) record(waitNS, evalNS int64, ops, flushes int) {
	if waitNS != 0 {
		t.waitNS.Add(waitNS)
	}
	if evalNS != 0 {
		t.evalNS.Add(evalNS)
	}
	if ops != 0 {
		t.ops.Add(int64(ops))
	}
	if flushes != 0 {
		t.flushes.Add(int64(flushes))
	}
}

// Snapshot returns the accumulated totals.
func (t *BatchTiming) Snapshot() (waitNS, evalNS, ops, flushes int64) {
	return t.waitNS.Load(), t.evalNS.Load(), t.ops.Load(), t.flushes.Load()
}
