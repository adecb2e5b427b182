// Command perfbench is spmap's benchmark. It runs one workload in this
// process and prints, as its last line of output, one JSON object with
// the correctness verdict and the metrics:
//
//	perfbench --workload paper-spff --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (see endToEnd);
// with --trace 1 the same workload runs with spans around every layer
// call the benchmark makes and the metrics are the per-layer ones (see
// perLayer). Every input is generated from --seed. The process should
// run at GOMAXPROCS=1 (run.py sets it): allocation counts, cache hits
// and GC cycles then repeat between runs, which they do not at 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of spmap sees; every workload reports
// every one of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"improvement", "ratio"},
	{"gap", "ratio"},
	{"max_rss_mb", "MB"},
	{"pass_share", "ratio"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// reach reports 0: that is the measurement (it did no work there).
var perLayer = []metricDef{
	{"eval.compile_ms", "ms"},
	{"eval.batch_op_us", "us"},
	{"eval.session_move_us", "us"},
	{"eval.session_fastpath_share", "ratio"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_rate", "ratio"},
	{"batcher.flush_ops", "count"},
	{"batcher.cross_flush_share", "ratio"},
	{"batcher.flushes_per_req", "count"},
	{"sp.decompose_ms", "ms"},
	{"sp.cuts", "count"},
	{"decomp.map_ms", "ms"},
	{"decomp.evals", "count"},
	{"decomp.us_per_eval", "us"},
	{"decomp.apply_share", "ratio"},
	{"portfolio.race_ms", "ms"},
	{"portfolio.evals", "count"},
	{"portfolio.rounds", "count"},
	{"portfolio.budget_moved", "count"},
	{"portfolio.winner_evals_share", "ratio"},
	{"member.spff_refine.evals", "count"},
	{"member.heft_refine.evals", "count"},
	{"member.peft_refine.evals", "count"},
	{"member.anneal.evals", "count"},
	{"member.hillclimb.evals", "count"},
	{"member.nsga2.evals", "count"},
	{"bounds.certify_ms", "ms"},
	{"service.queue_us", "us"},
	{"service.batch_wait_us", "us"},
	{"service.eval_us", "us"},
	{"service.respond_us", "us"},
	{"client.codec_us", "us"},
	{"online.event_ms.fail", "ms"},
	{"online.event_ms.degrade", "ms"},
	{"online.event_ms.arrive", "ms"},
	{"online.event_ms.depart", "ms"},
	{"online.open_ms", "ms"},
	{"online.repair_evals", "count"},
	{"online.placement_evals", "count"},
	{"online.rebuild_share", "ratio"},
	{"fleet.checkpoints", "count"},
	{"fleet.checkpoint_kb", "KiB"},
	{"fleet.save_us", "us"},
	{"fleet.encode_us", "us"},
	{"setup.gen_ms", "ms"},
	{"setup.warm_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.allocs_per_op", "count"},
	{"go.gc_per_op", "count"},
	{"trace.overhead", "ratio"},
}

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	// minOps is the fewest ops a run times; 0 selects enough for the
	// workload's tail percentile.
	minOps int
}

// duration is how long a run measures.
func (c *config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// patience is how long a loop may keep going to collect the samples its
// tail percentile needs before the run fails instead.
func (c *config) patience() time.Duration {
	return max(4*c.duration(), time.Minute)
}

// opsFor is the fewest ops a run with tail percentile q must time.
func (c *config) opsFor(q float64) int {
	if c.minOps > 0 {
		return c.minOps
	}
	return samplesFor(q)
}

// workload is one benchmark workload: run sets up, measures and checks,
// filling the report.
type workload struct {
	name string
	run  func(c *config, r *report) error
}

var workloads = []workload{
	{"paper-spff", runSPFF},
	{"portfolio-race", runRace},
}

// report accumulates one run's verdict and metrics.
type report struct {
	attempted, failed int
	// problems are failed checks; the first few are printed.
	problems []string
	metrics  map[string]float64
	notes    []string
	// lat are the op latencies (ms) and tailQ the percentile reported
	// as latency_tail_ms.
	lat   []float64
	tailQ float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one op's gate outcome.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// setLatency reports the p50 and the tail of the op latencies, with
// their sample counts.
func (r *report) setLatency() error {
	t, err := tail(r.lat, r.tailQ)
	if err != nil {
		return err
	}
	r.set("latency_p50_ms", median(r.lat))
	r.set("latency_tail_ms", t)
	n := len(r.lat)
	r.note("latency_p50_ms over %d ops; latency_tail_ms is p%g with %d ops beyond it",
		n, 100*r.tailQ, n-int(math.Ceil(r.tailQ*float64(n))))
	ladder := ""
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		if v, err := tail(r.lat, q); err == nil {
			ladder += fmt.Sprintf(" p%g=%.3fms", 100*q, v)
		}
	}
	r.note("latency percentiles with at least %d ops beyond:%s", minBeyond, ladder)
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish assembles the result line. An untraced run must have set every
// end-to-end metric; per-layer metrics default to 0.
func (r *report) finish(traced bool) (result, error) {
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !traced {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricOut{v, d.unit}
	}
	return res, nil
}

// maxRSSMB is the process's peak resident set in MB (10^6 bytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	spans := flag.String("spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: GOMAXPROCS=%d, the benchmark is defined at 1\n", runtime.GOMAXPROCS(0))
	}
	c := &config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, spansDir: *spans}
	r := newReport()
	start := time.Now()
	if err := w.run(c, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !c.trace {
		if err := r.setLatency(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		r.set("max_rss_mb", maxRSSMB())
		r.set("pass_share", ratio(float64(r.attempted-r.failed), float64(r.attempted)))
	}
	res, err := r.finish(c.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for i, p := range r.problems {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failed checks\n", len(r.problems)-5)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	fmt.Printf("# %s seed=%d trace=%t wall=%.1fs\n", w.name, c.seed, c.trace, time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
