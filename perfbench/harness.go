package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"spmap/internal/bounds"
	"spmap/internal/eval"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
	"spmap/internal/sp"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 3

// phases splits one set-up into input generation and the warm-up pass;
// instance construction is the rest.
type phases struct{ gen, warm time.Duration }

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setUp runs build setupRuns times and keeps the last state. An
// earlier state is garbage before the next build starts, so the process
// never holds two set-ups at once and max_rss_mb counts one. It reports
// the median set-up time with its generation and warm-up parts, and
// notes every set-up time in order.
func setUp[S any](r *report, build func() (S, phases, error)) (S, error) {
	var total, gen, warm []float64
	for {
		runtime.GC()
		t0 := time.Now()
		s, ph, err := build()
		if err != nil {
			return s, err
		}
		total = append(total, time.Since(t0).Seconds())
		gen = append(gen, msOf(ph.gen))
		warm = append(warm, msOf(ph.warm))
		if len(total) < setupRuns {
			continue
		}
		r.set("setup_s", median(total))
		r.set("setup.gen_ms", median(gen))
		r.set("setup.warm_ms", median(warm))
		r.note("setup_s is the median of %d set-ups, in order (s): %v", setupRuns, total)
		runtime.GC() // the timed loop starts from a clean heap
		return s, nil
	}
}

// allocWindow measures runtime allocation over a fixed stretch of ops.
type allocWindow struct {
	before runtime.MemStats
}

func (w *allocWindow) start() { runtime.ReadMemStats(&w.before) }

// stop reports the window's allocation per op.
func (w *allocWindow) stop(r *report, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(ops)
	r.set("go.alloc_mb_per_op", float64(after.TotalAlloc-w.before.TotalAlloc)/1e6/n)
	r.set("go.allocs_per_op", float64(after.Mallocs-w.before.Mallocs)/n)
	r.set("go.gc_per_op", float64(after.NumGC-w.before.NumGC)/n)
}

// loopResult is what a measured loop collected: every op latency (ms),
// split by whether the op was traced.
type loopResult struct {
	all, traced, plain []float64
}

func (l *loopResult) add(d time.Duration, traced bool) {
	v := msOf(d)
	l.all = append(l.all, v)
	if traced {
		l.traced = append(l.traced, v)
	} else {
		l.plain = append(l.plain, v)
	}
}

// overhead reports trace.overhead: traced over untraced median latency.
func (l *loopResult) overhead(r *report) {
	if len(l.traced) > 0 && len(l.plain) > 0 {
		r.set("trace.overhead", median(l.traced)/median(l.plain))
	}
}

// corpusLoop runs op over the n instances of a fixed set, whole passes
// at a time, until the run's seconds have passed and at least minOps ops
// ran. Ending on a pass boundary keeps every run's mix of instances the
// same. The first pass visits the set in index order and is the
// allocation window, so its counts do not depend on the seed; later
// passes visit it in orders drawn from the seed. In a traced run each
// instance is traced on every other pass, and the pass count is even,
// so traced and untraced ops cover the same instances. op returns the
// op's latency; its correctness gate runs after the clock stops.
func corpusLoop(c *config, r *report, n, minOps int, op func(i, opID int, tr *tracer) (time.Duration, error)) (*loopResult, *tracer, error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	res := &loopResult{all: make([]float64, 0, 1<<14)}
	deadline := c.duration()
	order := rand.New(rand.NewSource(c.seed))
	start := time.Now()
	var win allocWindow
	var gcPercent int
	for pass := 0; ; pass++ {
		perm := order.Perm(n)
		if pass == 0 {
			for i := range perm {
				perm[i] = i
			}
			if tr != nil {
				// No collection in a traced run's allocation window: the
				// pacer starts cycles at timing-dependent points, each
				// cycle empties sync.Pools, and the counts would then
				// differ between runs in their fifth digit.
				gcPercent = debug.SetGCPercent(-1)
			}
			win.start()
		}
		for _, i := range perm {
			var t *tracer
			if (pass+i)%2 == 0 {
				t = tr
			}
			d, err := op(i, len(res.all), t)
			if err != nil {
				return nil, nil, err
			}
			res.add(d, t != nil)
		}
		if pass == 0 {
			win.stop(r, n)
			if tr != nil {
				debug.SetGCPercent(gcPercent)
			}
		}
		elapsed := time.Since(start)
		if elapsed >= deadline && len(res.all) >= minOps && (tr == nil || pass%2 == 1) {
			break
		}
		if elapsed > c.patience() && len(res.all) < minOps {
			return nil, nil, fmt.Errorf("only %d ops in %v, need %d for the tail percentile", len(res.all), elapsed, minOps)
		}
	}
	return res, tr, nil
}

var errNondeterministic = errors.New("a repeat of the op returned a different result")

// gateMapping is the per-op correctness gate of the mapping workloads:
// the mapping is valid and feasible, the reported makespan equals the
// reference simulation of the returned mapping bit for bit, and it is
// no worse than the pure-CPU baseline's reference makespan.
func gateMapping(ev *model.Evaluator, m mapping.Mapping, makespan, baseline float64) error {
	if err := m.Validate(ev.G, ev.P); err != nil {
		return err
	}
	if !m.Feasible(ev.G, ev.P) {
		return fmt.Errorf("mapping violates a device area cap")
	}
	if ref := ev.ReferenceMakespan(m); math.Float64bits(ref) != math.Float64bits(makespan) {
		return fmt.Errorf("makespan %v differs from the reference %v", makespan, ref)
	}
	if makespan > baseline {
		return fmt.Errorf("makespan %v worse than the pure-CPU baseline %v", makespan, baseline)
	}
	return nil
}

// instanceSeed generates every workload's fixed instance set. The sets
// do not depend on --seed: improvement and gap are then bit-identical
// across runs, and run-to-run differences in time come from the code
// and the machine, not from which graphs a seed drew. The seed draws what
// varies between runs: the order ops visit the set, and in a traced
// run the service probe's candidate traffic and the fleet probe's
// stream orders.
const instanceSeed = 1

// instance is one (graph, platform) problem of a workload, with the
// schedule set its evaluator uses and an incumbent mapping that the
// isolated move timings patch.
type instance struct {
	g         *graph.DAG
	p         *platform.Platform
	schedules int
	seed      int64
	algoSeed  int64 // the mapper's own draws: SP cut choice, race seed
	base      mapping.Mapping
}

// setBases installs each instance's mapper result as the incumbent the
// layer probes patch (the baseline where the op failed its gate).
func setBases(ins []instance, results []mapping.Mapping) {
	for i := range ins {
		ins[i].base = results[i]
		if ins[i].base == nil {
			ins[i].base = mapping.Baseline(ins[i].g, ins[i].p)
		}
	}
}

// evaluator compiles the instance's cost function.
func (in *instance) evaluator() *model.Evaluator {
	ev := model.NewEvaluator(in.g, in.p).WithSchedules(in.schedules, in.seed)
	ev.Engine()
	return ev
}

// uncappedDevices lists the devices without an area cap: a move onto
// one is always feasible, so the candidate is really simulated.
func uncappedDevices(p *platform.Platform) []int {
	var ds []int
	for d := range p.Devices {
		if p.Devices[d].Area == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}

// move is one candidate: base with tasks remapped to device.
type move struct {
	tasks  []graph.NodeID
	device int
}

// randomMove draws a move of lo..hi distinct tasks onto an uncapped
// device, every task one that base does not already place there, so the
// move changes as many tasks as it names.
func randomMove(rng *rand.Rand, base mapping.Mapping, devs []int, lo, hi int) move {
	k := lo + rng.Intn(hi-lo+1)
	first := rng.Intn(len(devs))
	for off := range devs {
		d := devs[(first+off)%len(devs)]
		var movable []graph.NodeID
		for v, cur := range base {
			if cur != d {
				movable = append(movable, graph.NodeID(v))
			}
		}
		if len(movable) == 0 {
			continue
		}
		rng.Shuffle(len(movable), func(i, j int) { movable[i], movable[j] = movable[j], movable[i] })
		return move{tasks: movable[:min(k, len(movable))], device: d}
	}
	// Every task is on the one uncapped device: a no-op move.
	return move{tasks: []graph.NodeID{0}, device: devs[0]}
}

// timeRepeated calls fn, each call in its own span, until 20ms have
// passed (at least once, at most maxReps times) and returns the mean
// time per call.
func timeRepeated(tr *tracer, name string, maxReps int, fn func()) time.Duration {
	t0 := time.Now()
	reps := 0
	for reps < maxReps {
		s := time.Now()
		fn()
		tr.add(name, s, time.Now(), -1, -1)
		reps++
		if time.Since(t0) >= 20*time.Millisecond {
			break
		}
	}
	return time.Since(t0) / time.Duration(reps)
}

// traceProbes ends a traced run. It runs the isolated probes: the
// kernel, session, SP and bound probes on the workload's own instances,
// then the service and fleet probes, which time the layers that no
// workload's ops reach. Then it writes the spans.
func traceProbes(c *config, r *report, tr *tracer, ins []instance, workload string) error {
	probeLayers(r, tr, rand.New(rand.NewSource(c.seed)), ins)
	if err := probeService(r, tr, c.seed); err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	if err := probeFleet(r, tr, c.seed); err != nil {
		return fmt.Errorf("fleet probe: %w", err)
	}
	return tr.write(c.spansDir, workload, c.seed)
}

// probeLayers times the layers the mappers call internally, in
// isolation on the workload's own instances: kernel compile, a batch of
// patched candidates, the same candidates through an incremental
// session, SP decomposition and the combinatorial bound certificate.
// The batch and session results must agree bit for bit.
func probeLayers(r *report, tr *tracer, rng *rand.Rand, ins []instance) {
	const moves = 64
	var compile, batch, session, fast, decompose, cuts, certify []float64
	for k := range ins {
		in := &ins[k]
		compile = append(compile, msOf(timeRepeated(tr, "eval.compile", 50, func() { in.evaluator() })))
		ev := in.evaluator()
		eng := ev.Engine().WithWorkers(1)
		devs := uncappedDevices(in.p)
		ops := make([]eval.Op, moves)
		for i := range ops {
			mv := randomMove(rng, in.base, devs, 1, 3)
			ops[i] = eval.Op{Base: in.base, Patch: mv.tasks, Device: mv.device}
		}
		var want []float64
		batch = append(batch, msOf(timeRepeated(tr, "eval.batch", 200, func() { want = eng.EvaluateBatch(ops, math.Inf(1)) }))*1e3/moves)

		f, err := sp.Decompose(in.g, sp.Options{Seed: in.algoSeed})
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("sp.Decompose: %v", err))
			continue
		}
		ix := sp.NewIndex(f, in.g.NumTasks())
		s := eng.Incremental(in.base, ix.Within)
		got := make([]float64, moves)
		session = append(session, msOf(timeRepeated(tr, "eval.session", 200, func() {
			for i, op := range ops {
				got[i] = s.Evaluate(op.Patch, op.Device, math.Inf(1))
			}
		}))*1e3/moves)
		st := s.Stats()
		s.Close()
		fast = append(fast, ratio(float64(st.FastPath), float64(st.Evals)))
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				r.problems = append(r.problems, fmt.Sprintf("session move %d: %v, batch says %v", i, got[i], want[i]))
				break
			}
		}

		decompose = append(decompose, msOf(timeRepeated(tr, "sp.decompose", 200, func() {
			f, _ = sp.Decompose(in.g, sp.Options{Seed: in.algoSeed})
		})))
		cuts = append(cuts, float64(f.Cuts))
		certify = append(certify, msOf(timeRepeated(tr, "bounds.certify", 200, func() { bounds.Certify(ev) })))
	}
	r.set("eval.compile_ms", mean(compile))
	r.set("eval.batch_op_us", mean(batch))
	r.set("eval.session_move_us", mean(session))
	r.set("eval.session_fastpath_share", mean(fast))
	r.set("sp.decompose_ms", mean(decompose))
	if _, ok := r.metrics["sp.cuts"]; !ok {
		r.set("sp.cuts", mean(cuts))
	}
	r.set("bounds.certify_ms", mean(certify))
}
