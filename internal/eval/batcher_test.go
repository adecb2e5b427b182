package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spmap/internal/gen"
	"spmap/internal/mapping"
	"spmap/internal/platform"
)

// TestBatcherBitIdentical drives many concurrent submitters with
// distinct op streams and per-submitter cutoffs through one shared
// coalescing batcher and checks every result is bit-identical to the
// direct (uncoalesced) path. No cache is attached, so even above-cutoff
// clamped values must match exactly: coalescing may change which flush
// carries an op but never what it evaluates to.
func TestBatcherBitIdentical(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(11))
	g := gen.SeriesParallel(rng, 40, gen.DefaultAttr())
	eng := NewEngineSchedules(g, p, 8, 3, Options{Workers: 4})
	base := mapping.Mapping(make([]int, g.NumTasks()))
	ref := eng.Makespan(base)

	bat := NewBatcher(eng, BatcherOptions{MaxBatch: 32, MaxWait: 200 * time.Microsecond})
	defer bat.Close()

	const callers = 8
	type stream struct {
		ops    []Op
		cutoff float64
	}
	streams := make([]stream, callers)
	cutoffs := []float64{math.Inf(1), ref, ref * 0.8, ref * 0.5}
	for i := range streams {
		streams[i] = stream{
			ops:    randomOps(rand.New(rand.NewSource(int64(100+i))), g, p, base, 120),
			cutoff: cutoffs[i%len(cutoffs)],
		}
	}
	// Direct reference results, computed serially on the plain engine.
	want := make([][]float64, callers)
	for i, s := range streams {
		want[i] = eng.EvaluateBatch(s.ops, s.cutoff)
	}

	coal := eng.WithBatcher(bat)
	var wg sync.WaitGroup
	got := make([][]float64, callers)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = coal.EvaluateBatch(streams[i].ops, streams[i].cutoff)
		}(i)
	}
	wg.Wait()
	for i := range streams {
		for j := range streams[i].ops {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("caller %d op %d: coalesced %v != direct %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	st := bat.Stats()
	if st.Items != int64(callers*120) {
		t.Fatalf("batcher carried %d items, want %d", st.Items, callers*120)
	}
	if st.Flushes == 0 {
		t.Fatalf("no flushes recorded: %+v", st)
	}
}

// TestBatcherCoalescesAcrossCallers holds enough concurrent submitters
// against a generous flush window that at least one flush must mix ops
// from different submit calls — the cross-request amortization the
// batcher exists for.
func TestBatcherCoalescesAcrossCallers(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(3))
	g := gen.SeriesParallel(rng, 25, gen.DefaultAttr())
	eng := NewEngineSchedules(g, p, 4, 3, Options{Workers: 2})
	base := mapping.Mapping(make([]int, g.NumTasks()))

	bat := NewBatcher(eng, BatcherOptions{MaxBatch: 64, MaxWait: 20 * time.Millisecond})
	defer bat.Close()
	coal := eng.WithBatcher(bat)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ops := randomOps(rand.New(rand.NewSource(int64(i))), g, p, base, 4)
			coal.EvaluateBatch(ops, math.Inf(1))
		}(i)
	}
	close(start)
	wg.Wait()
	st := bat.Stats()
	if st.CrossFlushes == 0 {
		t.Fatalf("no cross-caller flushes despite 16 concurrent 4-op submitters in a 20ms window: %+v", st)
	}
	if st.MaxFlush < 8 {
		t.Fatalf("largest flush carried %d ops, want >= 8 (coalescing failed): %+v", st.MaxFlush, st)
	}
}

// TestBatcherSizeFlush saturates the batch size so flushes trigger on
// size rather than the (long) deadline.
func TestBatcherSizeFlush(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(5))
	g := gen.SeriesParallel(rng, 25, gen.DefaultAttr())
	eng := NewEngineSchedules(g, p, 4, 3, Options{Workers: 1})
	base := mapping.Mapping(make([]int, g.NumTasks()))

	bat := NewBatcher(eng, BatcherOptions{MaxBatch: 16, MaxWait: time.Minute})
	defer bat.Close()
	coal := eng.WithBatcher(bat)
	ops := randomOps(rng, g, p, base, 64) // 4 full batches
	coal.EvaluateBatch(ops, math.Inf(1))
	st := bat.Stats()
	if st.SizeFlushes == 0 {
		t.Fatalf("64 ops through MaxBatch=16 produced no size flushes: %+v", st)
	}
}

// TestBatcherCloseDrains closes the batcher while submissions are in
// flight: every already-submitted op must still be answered correctly,
// and submissions after Close must fall back to direct evaluation with
// identical results.
func TestBatcherCloseDrains(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(9))
	g := gen.SeriesParallel(rng, 30, gen.DefaultAttr())
	eng := NewEngineSchedules(g, p, 4, 3, Options{Workers: 2})
	base := mapping.Mapping(make([]int, g.NumTasks()))

	bat := NewBatcher(eng, BatcherOptions{MaxBatch: 8, MaxWait: 5 * time.Millisecond})
	coal := eng.WithBatcher(bat)

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops := randomOps(rand.New(rand.NewSource(int64(i))), g, p, base, 50)
			want := eng.EvaluateBatch(ops, math.Inf(1))
			got := coal.EvaluateBatch(ops, math.Inf(1)) // may straddle Close
			for j := range ops {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					errs[i] = fmt.Sprintf("op %d: %v != %v", j, got[j], want[j])
					return
				}
			}
		}(i)
	}
	time.Sleep(time.Millisecond)
	bat.Close()
	bat.Close() // idempotent
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("caller %d diverged across Close: %s", i, e)
		}
	}
	// Post-Close submissions take the direct path and still work.
	ops := randomOps(rng, g, p, base, 20)
	want := eng.EvaluateBatch(ops, math.Inf(1))
	got := coal.EvaluateBatch(ops, math.Inf(1))
	for j := range ops {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("post-Close op %d: %v != %v", j, got[j], want[j])
		}
	}
}

// TestBatcherGuards pins the misuse panics: attaching a batcher built
// from a different kernel or cache configuration, and nesting batchers.
func TestBatcherGuards(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(2))
	g := gen.SeriesParallel(rng, 20, gen.DefaultAttr())
	a := NewEngineSchedules(g, p, 4, 3, Options{Workers: 1})
	b := NewEngineSchedules(g, p, 4, 4, Options{Workers: 1}) // different kernel

	bat := NewBatcher(a, BatcherOptions{})
	defer bat.Close()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("cross-kernel WithBatcher", func() { b.WithBatcher(bat) })
	mustPanic("cache-mismatch WithBatcher", func() { a.WithCache(NewCache()).WithBatcher(bat) })
	mustPanic("nested NewBatcher", func() { NewBatcher(a.WithBatcher(bat), BatcherOptions{}) })
}

// TestEvaluateBatchCtxCancel checks context cancellation on the direct
// path: a pre-cancelled context evaluates nothing (all slots NaN), a
// mid-batch cancel leaves every slot either NaN (never ran) or the
// exact direct result, and — the pool-hygiene half, meaningful under
// -race — the engine still evaluates correctly afterwards because every
// checked-out simulation state was returned.
func TestEvaluateBatchCtxCancel(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(13))
	g := gen.SeriesParallel(rng, 60, gen.DefaultAttr())
	base := mapping.Mapping(make([]int, g.NumTasks()))

	for _, workers := range []int{1, 4} {
		eng := NewEngineSchedules(g, p, 8, 3, Options{Workers: workers})
		ops := randomOps(rand.New(rand.NewSource(21)), g, p, base, 300)
		want := eng.EvaluateBatch(ops, math.Inf(1))

		// Pre-cancelled: nothing runs.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		out, err := eng.EvaluateBatchCtx(ctx, ops, math.Inf(1))
		if err != context.Canceled {
			t.Fatalf("workers=%d pre-cancelled: err=%v, want context.Canceled", workers, err)
		}
		for i, v := range out {
			if !math.IsNaN(v) {
				t.Fatalf("workers=%d pre-cancelled op %d evaluated to %v, want NaN", workers, i, v)
			}
		}

		// Mid-batch cancel: race the cancel against the batch; every
		// evaluated slot must equal the direct result.
		ctx, cancel = context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Microsecond)
			cancel()
		}()
		out, err = eng.EvaluateBatchCtx(ctx, ops, math.Inf(1))
		evaluated := 0
		for i, v := range out {
			if math.IsNaN(v) {
				continue
			}
			evaluated++
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d cancelled-batch op %d: %v != direct %v", workers, i, v, want[i])
			}
		}
		if err != nil && err != context.Canceled {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if err == nil && evaluated != len(ops) {
			t.Fatalf("workers=%d: nil error but only %d/%d slots evaluated", workers, evaluated, len(ops))
		}

		// Pool hygiene: the engine still produces exact results.
		after := eng.EvaluateBatch(ops[:50], math.Inf(1))
		for i := range after {
			if math.Float64bits(after[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d post-cancel op %d: %v != %v (pool state poisoned?)", workers, i, after[i], want[i])
			}
		}
	}
}

// TestBatcherCtxCancelled submits with an already-dead context through
// the coalescing path: the items are answered with the context error
// without burning evaluation budget.
func TestBatcherCtxCancelled(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(17))
	g := gen.SeriesParallel(rng, 25, gen.DefaultAttr())
	eng := NewEngineSchedules(g, p, 4, 3, Options{Workers: 1})
	base := mapping.Mapping(make([]int, g.NumTasks()))

	bat := NewBatcher(eng, BatcherOptions{MaxBatch: 8, MaxWait: 100 * time.Microsecond})
	defer bat.Close()
	coal := eng.WithBatcher(bat)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ops := randomOps(rng, g, p, base, 10)
	out, err := coal.EvaluateBatchCtx(ctx, ops, math.Inf(1))
	if err != context.Canceled {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	for i, v := range out {
		if !math.IsNaN(v) {
			t.Fatalf("cancelled op %d evaluated to %v, want NaN", i, v)
		}
	}
}

// TestBatchTimingSink checks phase attribution on both paths: the
// direct path records evaluation time and one run, the coalesced path
// additionally records flush wait time.
func TestBatchTimingSink(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(23))
	g := gen.SeriesParallel(rng, 25, gen.DefaultAttr())
	eng := NewEngineSchedules(g, p, 4, 3, Options{Workers: 1})
	base := mapping.Mapping(make([]int, g.NumTasks()))
	ops := randomOps(rng, g, p, base, 30)

	direct := new(BatchTiming)
	eng.WithBatchTiming(direct).EvaluateBatch(ops, math.Inf(1))
	if _, evalNS, n, flushes := direct.Snapshot(); n != 30 || flushes != 1 || evalNS <= 0 {
		t.Fatalf("direct sink: evalNS=%d ops=%d flushes=%d, want 30 ops / 1 flush / eval > 0", evalNS, n, flushes)
	}

	bat := NewBatcher(eng, BatcherOptions{MaxBatch: 8, MaxWait: 100 * time.Microsecond})
	defer bat.Close()
	coal := new(BatchTiming)
	eng.WithBatcher(bat).WithBatchTiming(coal).EvaluateBatch(ops, math.Inf(1))
	if waitNS, _, n, flushes := coal.Snapshot(); n != 30 || flushes == 0 || waitNS <= 0 {
		t.Fatalf("coalesced sink: waitNS=%d ops=%d flushes=%d, want 30 ops / >=1 flush / wait > 0", waitNS, n, flushes)
	}
}

// TestBatcherMO routes the multi-objective batch path through the
// batcher and checks makespans and energies against the direct path.
func TestBatcherMO(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(29))
	g := gen.SeriesParallel(rng, 30, gen.DefaultAttr())
	eng := NewEngineSchedules(g, p, 4, 3, Options{Workers: 2})
	base := mapping.Mapping(make([]int, g.NumTasks()))
	ops := randomOps(rng, g, p, base, 40)

	wantMS, wantEn := fusedMsEn(eng, ops, math.Inf(1))
	bat := NewBatcher(eng, BatcherOptions{MaxBatch: 8, MaxWait: 100 * time.Microsecond})
	defer bat.Close()
	gotMS, gotEn := fusedMsEn(eng.WithBatcher(bat), ops, math.Inf(1))
	for i := range ops {
		if math.Float64bits(gotMS[i]) != math.Float64bits(wantMS[i]) ||
			math.Float64bits(gotEn[i]) != math.Float64bits(wantEn[i]) {
			t.Fatalf("op %d: coalesced (%v, %v) != direct (%v, %v)", i, gotMS[i], gotEn[i], wantMS[i], wantEn[i])
		}
	}
}

// TestCacheBounded pins the FIFO bound: a long stream of distinct
// mappings holds the cache at its cap with the oldest entries evicted
// first, the Evictions counter accounts for every drop, and the
// retained set is a deterministic function of the store sequence.
func TestCacheBounded(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(31))
	g := gen.SeriesParallel(rng, 20, gen.DefaultAttr())
	const cap = 64
	c := NewCacheBounded(cap)
	if c.Cap() != cap {
		t.Fatalf("Cap() = %d, want %d", c.Cap(), cap)
	}
	eng := NewEngineSchedules(g, p, 4, 3, Options{Workers: 1}).WithCache(c)

	// Stream ~10x cap distinct mappings through the cached engine.
	n := g.NumTasks()
	mappings := make([]mapping.Mapping, 10*cap)
	for i := range mappings {
		m := mapping.Mapping(make([]int, n))
		for v := range m {
			m[v] = rng.Intn(p.NumDevices())
		}
		mappings[i] = m
		eng.Makespan(m)
	}
	st := c.Stats()
	if st.Entries != cap {
		t.Fatalf("steady-state size %d, want exactly cap %d", st.Entries, cap)
	}
	if want := st.Stores - cap; st.Evictions != want {
		t.Fatalf("evictions %d, want stores-cap = %d", st.Evictions, want)
	}
	// FIFO: the most recent cap mappings hit, the oldest miss.
	h0 := c.Stats().Hits
	for _, m := range mappings[len(mappings)-cap:] {
		eng.Makespan(m)
	}
	if got := c.Stats().Hits - h0; got != cap {
		t.Fatalf("recent-%d re-evaluation produced %d hits, want all %d retained", cap, got, cap)
	}
	m0 := c.Stats().Misses
	eng.Makespan(mappings[0])
	if got := c.Stats().Misses - m0; got != 1 {
		t.Fatalf("oldest mapping should have been evicted (got %d new misses, want 1)", got)
	}

	// Results stay bit-identical to uncached evaluation despite churn.
	plain := NewEngineSchedules(g, p, 4, 3, Options{Workers: 1})
	for i := 0; i < len(mappings); i += 37 {
		if a, b := eng.Makespan(mappings[i]), plain.Makespan(mappings[i]); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("mapping %d: bounded-cache %v != plain %v", i, a, b)
		}
	}
}

// TestCacheBoundedUpgradeKeepsOrder checks that materializing an
// energy on an existing entry (a store-path upgrade) neither evicts nor
// refreshes the key's eviction position.
func TestCacheBoundedUpgradeKeepsOrder(t *testing.T) {
	p := platform.Reference()
	rng := rand.New(rand.NewSource(37))
	g := gen.SeriesParallel(rng, 20, gen.DefaultAttr())
	c := NewCacheBounded(4)
	eng := NewEngineSchedules(g, p, 4, 3, Options{Workers: 1}).WithCache(c)

	n := g.NumTasks()
	nd := p.NumDevices()
	ms := make([]mapping.Mapping, 6)
	for i := range ms {
		// Two base-nd digits keep all six mappings distinct on the
		// 3-device reference platform.
		m := mapping.Mapping(make([]int, n))
		m[0], m[1] = i%nd, (i/nd)%nd
		ms[i] = m
	}
	for _, m := range ms[:4] {
		eng.Makespan(m)
	}
	// Upgrade entry 0 in place (materializes its energy)...
	fusedMsEn(eng, []Op{{Base: ms[0]}}, math.Inf(1))
	if got := c.Stats().Evictions; got != 0 {
		t.Fatalf("upgrade evicted %d entries from a cache at cap", got)
	}
	// ...then one new key must still evict entry 0 (insertion order, not
	// recency of touch).
	eng.Makespan(ms[4])
	m0 := c.Stats().Misses
	eng.Makespan(ms[0])
	if got := c.Stats().Misses - m0; got != 1 {
		t.Fatalf("upgraded-then-overflowed oldest key should miss (got %d new misses)", got)
	}
}
