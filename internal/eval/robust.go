package eval

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultTail is the robust objective's default tail quantile (p95).
const DefaultTail = 0.95

// RobustObjective is the uncertainty-aware makespan objective: the
// candidate mapping is evaluated under S Monte-Carlo perturbed cost
// worlds (one compiled NewEngineNoise kernel per sample, built lazily
// per target engine and reused across batches), and its value is the
// tail quantile (Tail, default p95) of the per-sample makespans — the
// robustness axis of the time × energy × robustness fronts. S samples
// of one candidate have the same shape as S candidates, so each sample
// world evaluates the whole batch through the existing EvaluateBatch
// worker pool; single-candidate batches fan the samples themselves out
// over the pool instead.
//
// Contract: values are always exact — the caller's cutoff is ignored
// (a quantile over early-exited lower bounds would not be a statistic
// of anything), and the sample engines bypass the target engine's
// cache and batcher. Infeasibility does not depend on the
// perturbation (area capacities are noise-free), so a candidate is
// Infeasible in every sample or in none; infeasible candidates report
// Infeasible. For a fixed (noise model, samples, tail) the result is a
// pure function of the ops — identical across worker counts, cache
// configurations and runs.
//
// A RobustObjective is safe for concurrent use; the lazily-built sample
// engines are shared under a mutex.
type RobustObjective struct {
	noise   NoiseModel
	samples int
	tail    float64

	mu   sync.Mutex
	forK *kernel   // kernel the sample engines were built for
	eng  []*Engine // one perturbed engine per sample
}

// NewRobustObjective validates (noise, samples, tail) and returns the
// robust objective. samples must be >= 1 and tail in (0, 1); tail = 0
// selects DefaultTail.
func NewRobustObjective(noise NoiseModel, samples int, tail float64) (*RobustObjective, error) {
	if err := noise.Validate(); err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, fmt.Errorf("eval: robust objective needs samples >= 1, got %d", samples)
	}
	if tail == 0 {
		tail = DefaultTail
	}
	if math.IsNaN(tail) || tail <= 0 || tail >= 1 {
		return nil, fmt.Errorf("eval: robust tail quantile %g outside (0, 1)", tail)
	}
	return &RobustObjective{noise: noise, samples: samples, tail: tail}, nil
}

// Noise returns the objective's noise model.
func (ro *RobustObjective) Noise() NoiseModel { return ro.noise }

// Samples returns the Monte-Carlo sample count.
func (ro *RobustObjective) Samples() int { return ro.samples }

// Tail returns the tail quantile.
func (ro *RobustObjective) Tail() float64 { return ro.tail }

// sampleEngines returns the per-sample perturbed engines for e's
// instance, compiling them on first use (and recompiling when the
// objective is reused against an engine with a different kernel —
// another graph, platform or schedule set).
func (ro *RobustObjective) sampleEngines(e *Engine) ([]*Engine, error) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	if ro.forK == e.k {
		return ro.eng, nil
	}
	if e.g == nil || e.p == nil {
		return nil, fmt.Errorf("eval: robust objective needs an engine built by NewEngine/NewEngineSchedules")
	}
	eng := make([]*Engine, ro.samples)
	for s := range eng {
		eng[s] = NewEngineNoise(e.g, e.p, e.orders, ro.noise, s, Options{Workers: e.workers})
	}
	ro.forK, ro.eng = e.k, eng
	return eng, nil
}

// Batch implements Objective: it evaluates every op under all samples
// and fills out with the index-aligned tail makespans. The cutoff is
// ignored (see the type doc for the exactness and determinism
// contract).
func (ro *RobustObjective) Batch(e *Engine, ops []Op, _ float64, out []float64) {
	n := len(ops)
	if n == 0 {
		return
	}
	engs, err := ro.sampleEngines(e)
	if err != nil {
		panic(err) // programming error: engine without retained inputs
	}
	S := ro.samples
	vals := make([]float64, S*n) // [s*n + i]
	if n == 1 && e.workers > 1 && S > 1 {
		// One candidate, many samples: the batch axis is degenerate, so
		// fan the sample axis out over the worker pool instead. Each
		// (sample, op) evaluation is engine-deterministic, so the fan-out
		// shape cannot change any value.
		workers := e.workers
		if workers > S {
			workers = S
		}
		var next int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					s := int(atomic.AddInt64(&next, 1)) - 1
					if s >= S {
						return
					}
					vals[s] = engs[s].Evaluate(ops[0], math.Inf(1))
				}
			}()
		}
		wg.Wait()
	} else {
		for s := 0; s < S; s++ {
			res := engs[s].WithWorkers(e.workers).EvaluateBatch(ops, math.Inf(1))
			copy(vals[s*n:(s+1)*n], res)
		}
	}
	qi := quantileIndex(ro.tail, S)
	buf := make([]float64, 0, S)
	for i := range n {
		buf = buf[:0]
		for s := 0; s < S && vals[s*n+i] < Infeasible; s++ {
			buf = append(buf, vals[s*n+i])
		}
		if len(buf) < S {
			out[i] = Infeasible
			continue
		}
		sort.Float64s(buf)
		out[i] = buf[qi]
	}
}

// quantileIndex returns the 0-based order statistic of the q-quantile
// over s sorted samples — ceil(q*s) - 1 clamped to [0, s-1] (the
// inverse empirical CDF; q = 0.95 over 20 samples selects index 18).
func quantileIndex(q float64, s int) int {
	i := int(math.Ceil(q*float64(s))) - 1
	if i < 0 {
		i = 0
	}
	if i >= s {
		i = s - 1
	}
	return i
}
