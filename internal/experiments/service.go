package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"spmap/internal/eval"
	"spmap/internal/gen"
	"spmap/internal/platform"
	"spmap/internal/service"
)

// The service experiment is the spmapd load generator: it fires C
// simulated concurrent /v1/evaluate requests at a warm mapping service
// and measures throughput and client-observed latency percentiles,
// batching on ("coalesced") versus off ("direct"). Each client plays a
// distributed local-search worker: all clients explore moves around
// one shared incumbent mapping, sending patch-form candidates
// (base + moves) rather than whole mappings. That shape is what makes
// cross-request coalescing pay: ops from different requests that share
// a base mapping replay its schedule prefix once per flush, while the
// direct mode's per-request batches are too small to amortize the
// prefix recording and fall back to full evaluations. Server-side
// phase timings (queue/batch/eval/respond) come from the per-request
// Timing records the service embeds on request.
//
// Before any load runs, a determinism gate serves a fixed request set
// (patch-form, whole-mapping, and finite-cutoff bodies) through
// coalesced and direct services at worker counts {1, 4} — both
// serially and under full concurrency — and panics unless every
// response body is byte-identical to the serial direct/single-worker
// reference. A throughput number from a service that answers
// differently under load would be worthless.

// ServiceRow is one (concurrency, mode) load measurement.
type ServiceRow struct {
	Concurrency int     `json:"concurrency"`
	Mode        string  `json:"mode"` // coalesced | direct
	Requests    int     `json:"requests"`
	Ops         int64   `json:"ops"` // candidate evaluations submitted
	TimeMS      float64 `json:"time_ms" fmt:"%.3f"`
	Throughput  float64 `json:"throughput_rps" fmt:"%.1f"`
	// Client-observed request latency percentiles, µs.
	P50US int64 `json:"p50_us"`
	P90US int64 `json:"p90_us"`
	P99US int64 `json:"p99_us"`
	MaxUS int64 `json:"max_us"`
	// Mean server-side phase timings per request, µs.
	QueueUS   float64 `json:"queue_us" fmt:"%.1f"`
	BatchUS   float64 `json:"batch_us" fmt:"%.1f"`
	EvalUS    float64 `json:"eval_us" fmt:"%.1f"`
	RespondUS float64 `json:"respond_us" fmt:"%.1f"`
	// Coalescing and cache telemetry for the run.
	Flushes      int64   `json:"flushes"`
	AvgFlush     float64 `json:"avg_flush" fmt:"%.1f"`
	CrossFlushes int64   `json:"cross_flushes"`
	MaxFlush     int64   `json:"max_flush"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	// SpeedupVsDirect is this row's throughput over the direct row at
	// the same concurrency (1 on direct rows).
	SpeedupVsDirect float64 `json:"speedup_vs_direct" fmt:"%.3f"`
}

// serviceSchedules is the per-request schedule-order count. The
// service's steady-state clients are makespan consumers, so the sweep
// runs at high evaluation fidelity (hundreds of random schedule
// orders per makespan) rather than the quick-experiment default — that
// is both the regime a long-running mapping service exists for and the
// regime where evaluation, not request plumbing, dominates a request.
func (c Config) serviceSchedules() int {
	if c.Schedules > 0 {
		return c.Schedules
	}
	return 500
}

// serviceLevels is the simulated-concurrency sweep.
func (c Config) serviceLevels() []int {
	if c.Paper {
		return []int{1024, 4096, 16384, 65536}
	}
	return []int{256, 1024, 4096, 16384}
}

// serviceOpsPerRequest is each simulated client's candidate count. Two
// is deliberately below the engine's prefix-recording threshold: a
// direct per-request batch pays two full evaluations, while a
// coalesced flush pools the ops of ~64 requests around the shared base
// and every op resumes from one recorded prefix.
const serviceOpsPerRequest = 2

// serviceTasks is the request graph size.
const serviceTasks = 96

// serviceMoveTasks is the tasks-per-move size. Compound three-task
// moves keep the move space near C(96,3)·devices, so concurrent
// clients rarely collide in the evaluation cache and the run measures
// evaluation, not cache lookups.
const serviceMoveTasks = 3

// serviceClient sends one request and returns the response body.
type serviceClient func(path string, body []byte) (int, []byte, error)

// recorderClient drives a handler in process — no sockets, so the
// 100k-concurrency levels measure the service, not the TCP stack.
func recorderClient(h http.Handler) serviceClient {
	return func(path string, body []byte) (int, []byte, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// httpClient targets a live daemon (the CI smoke job's mode).
func httpClient(baseURL string) serviceClient {
	c := &http.Client{Timeout: 60 * time.Second}
	return func(path string, body []byte) (int, []byte, error) {
		resp, err := c.Post(baseURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
}

// serviceGraphJSON builds the shared request graph.
func serviceGraphJSON(cfg Config) json.RawMessage {
	g := gen.SeriesParallel(rand.New(rand.NewSource(cfg.Seed*104729+11)), serviceTasks, gen.DefaultAttr())
	b, err := json.Marshal(g)
	if err != nil {
		panic(fmt.Sprintf("service experiment: marshal graph: %v", err))
	}
	return b
}

// serviceSafeDevices returns the device indices without an
// area-capacity constraint. The synthetic workload assigns tasks to
// these only: random mappings touching an area-capped FPGA are almost
// always infeasible, and a load sweep over instantly-rejected
// candidates would measure request plumbing instead of evaluation.
func serviceSafeDevices(p *platform.Platform) []int {
	var safe []int
	for d := range p.Devices {
		if p.Devices[d].Area == 0 {
			safe = append(safe, d)
		}
	}
	if len(safe) == 0 {
		panic("service experiment: every device is area-constrained")
	}
	return safe
}

// serviceBase is the shared incumbent mapping every simulated client
// explores around. One base across all requests is what lets a
// coalesced flush record its schedule prefix once and resume every
// op from it.
func serviceBase(safe []int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed*7919 + 5))
	m := make([]int, serviceTasks)
	for v := range m {
		m[v] = safe[rng.Intn(len(safe))]
	}
	return m
}

// serviceBody builds client i's deterministic patch-form request body,
// referencing the warm instance by handle — the steady-state shape: no
// graph bytes, just the incumbent and this client's candidate moves.
// timing requests the embedded phase record (and is therefore excluded
// from the byte-determinism comparisons, which use timing=false
// bodies).
func serviceBody(instance string, safe []int, i int, seed int64, timing bool) []byte {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	moves := make([]map[string]any, serviceOpsPerRequest)
	for j := range moves {
		tasks := rng.Perm(serviceTasks)[:serviceMoveTasks]
		sort.Ints(tasks)
		moves[j] = map[string]any{"tasks": tasks, "device": safe[rng.Intn(len(safe))]}
	}
	return marshalBody(map[string]any{
		"id":       fmt.Sprintf("c%d", i),
		"instance": instance,
		"base":     serviceBase(safe, seed),
		"moves":    moves,
		"timing":   timing,
	})
}

// serviceWarm creates the warm instance through one graph-carrying
// request (outside any timed window: it pays kernel compilation) and
// returns the handle the steady-state load references plus a real
// makespan to derive gate cutoffs from.
func serviceWarm(client serviceClient, cfg Config, gj json.RawMessage, schedules int, safe []int) (string, float64) {
	status, out, err := client("/v1/evaluate", serviceWholeBody(gj, schedules, safe, 0, cfg.Seed, 0))
	if err != nil || status != 200 {
		panic(fmt.Sprintf("service experiment: warmup failed: status %d err %v body %s", status, err, out))
	}
	var pr struct {
		Instance  string     `json:"instance"`
		Makespans []*float64 `json:"makespans"`
	}
	if jerr := json.Unmarshal(out, &pr); jerr != nil || pr.Instance == "" ||
		len(pr.Makespans) == 0 || pr.Makespans[0] == nil {
		panic(fmt.Sprintf("service experiment: warmup response: %s", out))
	}
	if *pr.Makespans[0] >= eval.Infeasible {
		panic("service experiment: warmup candidate infeasible — workload must exercise real evaluations")
	}
	return pr.Instance, *pr.Makespans[0]
}

// serviceWholeBody is the whole-mapping variant (the gate checks both
// request shapes agree byte-for-byte across batching modes).
func serviceWholeBody(gj json.RawMessage, schedules int, safe []int, i int, seed int64, cutoff float64) []byte {
	rng := rand.New(rand.NewSource(seed*2_000_003 + int64(i)))
	mappings := make([][]int, serviceOpsPerRequest)
	for j := range mappings {
		m := make([]int, serviceTasks)
		for v := range m {
			m[v] = safe[rng.Intn(len(safe))]
		}
		mappings[j] = m
	}
	body := map[string]any{
		"id":        fmt.Sprintf("w%d", i),
		"graph":     gj,
		"mappings":  mappings,
		"schedules": schedules,
		"timing":    false,
	}
	if cutoff > 0 {
		body["cutoff"] = cutoff
	}
	return marshalBody(body)
}

func marshalBody(body map[string]any) []byte {
	b, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("service experiment: marshal body: %v", err))
	}
	return b
}

// serviceTimingEnvelope is the subset of the response the load loop
// reads back.
type serviceTimingEnvelope struct {
	Timing *service.Timing `json:"timing"`
}

// ServiceLoad runs the load sweep. baseURL == "" serves in process
// (both modes, full determinism gate); a non-empty baseURL fires the
// generator at a live spmapd instead and reports its rows with mode
// "remote" (the daemon's own -no-coalesce flag picks the mode, so no
// on/off comparison or speedup is possible remotely).
func ServiceLoad(cfg Config, baseURL string) []ServiceRow {
	gj := serviceGraphJSON(cfg)
	schedules := cfg.serviceSchedules()
	safe := serviceSafeDevices(cfg.platform())

	if baseURL != "" {
		client := httpClient(baseURL)
		var rows []ServiceRow
		for _, c := range []int{64, 256} { // smoke-scale against a real socket
			rows = append(rows, serviceRunLevel(cfg, client, gj, schedules, safe, c, "remote"))
		}
		return rows
	}

	serviceDeterminismGate(cfg, gj, schedules, safe)

	var rows []ServiceRow
	for _, c := range cfg.serviceLevels() {
		var direct, coalesced ServiceRow
		for _, mode := range []string{"direct", "coalesced"} {
			svc := service.New(service.Options{
				Platform:   cfg.platform(),
				Workers:    cfg.Workers,
				NoCoalesce: mode == "direct",
			})
			row := serviceRunLevel(cfg, recorderClient(svc.Handler()), gj, schedules, safe, c, mode)
			st := svc.Snapshot()
			for _, in := range st.Instances {
				row.Flushes += in.Flushes
				row.CrossFlushes += in.CrossFlushes
				if in.MaxFlush > row.MaxFlush {
					row.MaxFlush = in.MaxFlush
				}
				row.CacheHits += in.CacheHits
				row.CacheMisses += in.CacheMisses
				if in.Flushes > 0 {
					row.AvgFlush = float64(in.FlushedOps) / float64(in.Flushes)
				}
			}
			svc.Close()
			if mode == "direct" {
				direct = row
			} else {
				coalesced = row
			}
		}
		direct.SpeedupVsDirect = 1
		coalesced.SpeedupVsDirect = coalesced.Throughput / direct.Throughput
		rows = append(rows, direct, coalesced)
	}
	return rows
}

// serviceRunLevel fires c concurrent requests and aggregates one row.
func serviceRunLevel(cfg Config, client serviceClient, gj json.RawMessage, schedules int, safe []int, c int, mode string) ServiceRow {
	handle, _ := serviceWarm(client, cfg, gj, schedules, safe)
	bodies := make([][]byte, c)
	for i := range bodies {
		bodies[i] = serviceBody(handle, safe, i, cfg.Seed, true)
	}

	latencies := make([]int64, c)
	timings := make([]service.Timing, c)
	var wg sync.WaitGroup
	errs := make(chan string, c)
	t0 := time.Now()
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s0 := time.Now()
			status, body, err := client("/v1/evaluate", bodies[i])
			latencies[i] = time.Since(s0).Microseconds()
			if err != nil || status != 200 {
				errs <- fmt.Sprintf("request %d: status %d err %v body %s", i, status, err, body)
				return
			}
			var env serviceTimingEnvelope
			if jerr := json.Unmarshal(body, &env); jerr == nil && env.Timing != nil {
				timings[i] = *env.Timing
			}
		}(i)
	}
	wg.Wait()
	el := time.Since(t0)
	close(errs)
	for e := range errs {
		panic("service experiment: " + e)
	}

	row := ServiceRow{
		Concurrency: c, Mode: mode, Requests: c,
		Ops:    int64(c) * serviceOpsPerRequest,
		TimeMS: float64(el.Microseconds()) / 1000,
	}
	row.Throughput = float64(c) / el.Seconds()
	sorted := append([]int64(nil), latencies...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	pct := func(p float64) int64 {
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	row.P50US, row.P90US, row.P99US, row.MaxUS = pct(0.50), pct(0.90), pct(0.99), sorted[len(sorted)-1]
	var q, b, e, r float64
	for i := range timings {
		q += float64(timings[i].QueueUS)
		b += float64(timings[i].BatchUS)
		e += float64(timings[i].EvalUS)
		r += float64(timings[i].RespondUS)
	}
	n := float64(c)
	row.QueueUS, row.BatchUS, row.EvalUS, row.RespondUS = q/n, b/n, e/n, r/n
	return row
}

// serviceGateBodies builds the gate's mixed request set: handle-based
// patch-form bodies, graph-carrying whole-mapping bodies, and
// whole-mapping bodies with a finite cutoff derived from a real
// makespan (so the cutoff genuinely splits the candidates into
// served-exact and nulled).
func serviceGateBodies(cfg Config, gj json.RawMessage, schedules int, safe []int, handle string, cutoff float64) [][]byte {
	var bodies [][]byte
	for i := 0; i < 24; i++ {
		bodies = append(bodies, serviceBody(handle, safe, i, cfg.Seed, false))
	}
	for i := 0; i < 8; i++ {
		bodies = append(bodies, serviceWholeBody(gj, schedules, safe, i, cfg.Seed, 0))
	}
	for i := 8; i < 16; i++ {
		bodies = append(bodies, serviceWholeBody(gj, schedules, safe, i, cfg.Seed, cutoff))
	}
	return bodies
}

// serviceDeterminismGate panics unless a fixed request set yields
// byte-identical responses across {coalesced, direct} × workers {1, 4},
// serially and under full concurrency.
func serviceDeterminismGate(cfg Config, gj json.RawMessage, schedules int, safe []int) {
	var bodies [][]byte
	var reference []string
	var handle string
	{
		svc := service.New(service.Options{Platform: cfg.platform(), NoCoalesce: true, Workers: 1})
		client := recorderClient(svc.Handler())
		var cutoff float64
		handle, cutoff = serviceWarm(client, cfg, gj, schedules, safe)
		bodies = serviceGateBodies(cfg, gj, schedules, safe, handle, cutoff)
		reference = make([]string, len(bodies))
		for i, body := range bodies {
			status, out, _ := client("/v1/evaluate", body)
			if status != 200 {
				panic(fmt.Sprintf("service experiment: reference request %d: status %d body %s", i, status, out))
			}
			reference[i] = string(out)
		}
		svc.Close()
	}

	for _, noCoalesce := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			svc := service.New(service.Options{Platform: cfg.platform(), NoCoalesce: noCoalesce, Workers: workers})
			client := recorderClient(svc.Handler())
			// Instance keys are deterministic, so the prebuilt handle bodies
			// stay valid on this fresh service once it is warmed.
			if h, _ := serviceWarm(client, cfg, gj, schedules, safe); h != handle {
				panic(fmt.Sprintf("service experiment: instance key not deterministic: %q vs %q", h, handle))
			}
			var wg sync.WaitGroup
			for i, body := range bodies {
				wg.Add(1)
				go func(i int, body []byte) {
					defer wg.Done()
					status, out, _ := client("/v1/evaluate", body)
					if status != 200 || string(out) != reference[i] {
						panic(fmt.Sprintf("service experiment: response %d diverged (noCoalesce=%v workers=%d status=%d):\n got %s\nwant %s",
							i, noCoalesce, workers, status, out, reference[i]))
					}
				}(i, body)
			}
			wg.Wait()
			svc.Close()
		}
	}
}
