package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"spmap/internal/bounds"
	"spmap/internal/eval"
	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
	"spmap/internal/service"
)

// The service probe drives an in-process spmapd (service.New with its
// defaults, coalescing on) through its Handler. Two clients, each a
// local-search worker that waits for its reply (a closed loop), send
// patch-form /v1/evaluate requests addressed by instance handle: moves
// around shared incumbents on a few warm instances. JSON decode and
// respond, the cross-request batcher and the batch kernel's
// shared-prefix resume do almost all the work. No workload's ops reach
// the service, so every traced run ends with this probe.
const (
	svcInstances = 4 // fewer than the service's 32, so nothing is evicted
	svcClients   = 2
	svcMoves     = 8 // candidates per request
	svcSchedules = 20
	// svcMoveTasks is how many distinct tasks every candidate names,
	// drawn from all of the instance's tasks, with one uncapped device:
	// the move the service experiment's load generator draws
	// (internal/experiments). A task may already sit on that device, so
	// a candidate moves 0 to 3 tasks. The clients draw independently, so
	// a candidate repeats only when it makes the same mapping as an
	// earlier one.
	svcMoveTasks = 3
	svcMapBudget = 1000
	// svcProbeRequests is how many requests each client sends.
	svcProbeRequests = 400
)

// svcInput is everything the workload generates: the fixed instances
// with their /v1/map bodies and, from the seed, the traffic.
type svcInput struct {
	ins     []instance
	mapReqs [][]byte // graph-carrying /v1/map bodies, one per instance
	clients []int64  // client RNG seeds
	warm    int64    // RNG seed of the set-up's warm-up requests
}

func svcGenerate(seed int64) (*svcInput, error) {
	rng := rand.New(rand.NewSource(instanceSeed))
	traffic := rand.New(rand.NewSource(seed))
	in := &svcInput{}
	p := platform.Reference()
	for i := 0; i < svcInstances; i++ {
		n := 60 + rng.Intn(41)
		g := gen.SeriesParallel(rng, n, gen.DefaultAttr())
		// The service seeds an instance's schedule set with the
		// request seed, and a zero seed means 1: keep it non-zero.
		ins := instance{g: g, p: p, schedules: svcSchedules, seed: 1 + rng.Int63n(1<<40)}
		gj, err := g.MarshalJSON()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{
			"graph": json.RawMessage(gj), "schedules": svcSchedules, "seed": ins.seed,
			"algo": "portfolio", "budget": svcMapBudget,
		})
		if err != nil {
			return nil, err
		}
		in.ins = append(in.ins, ins)
		in.mapReqs = append(in.mapReqs, body)
	}
	for c := 0; c < svcClients; c++ {
		in.clients = append(in.clients, traffic.Int63())
	}
	in.warm = traffic.Int63()
	return in, nil
}

// svcState is one set-up: the running service, the served incumbents
// and the benchmark's own engines that check every response.
type svcState struct {
	in         *svcInput
	svc        *service.Service
	h          http.Handler
	handles    []string
	incumbents []mapping.Mapping
	engines    []*eval.Engine
}

func (s *svcState) post(path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

type mapResponse struct {
	Instance    string  `json:"instance"`
	Mapping     []int   `json:"mapping"`
	Makespan    float64 `json:"makespan"`
	Improvement float64 `json:"improvement"`
	LowerBound  float64 `json:"lowerBound"`
	Gap         float64 `json:"gap"`
}

type evaluateRequest struct {
	Instance string     `json:"instance"`
	Base     []int      `json:"base"`
	Moves    []wireMove `json:"moves"`
	Timing   bool       `json:"timing,omitempty"`
}

type wireMove struct {
	Tasks  []graph.NodeID `json:"tasks"`
	Device int            `json:"device"`
}

type evaluateResponse struct {
	Makespans []*float64      `json:"makespans"`
	Timing    *service.Timing `json:"timing"`
}

// svcSetUp starts a service, registers every instance with a portfolio
// /v1/map (the served incumbents), checks those maps, and warms each
// instance with a few evaluate requests.
func svcSetUp(seed int64, r *report) (*svcState, error) {
	in, err := svcGenerate(seed)
	if err != nil {
		return nil, err
	}
	s := &svcState{in: in, svc: service.New(service.Options{})}
	s.h = s.svc.Handler()
	for i, body := range in.mapReqs {
		code, resp := s.post("/v1/map", body)
		if code != http.StatusOK {
			s.svc.Close()
			return nil, fmt.Errorf("/v1/map: status %d: %s", code, resp)
		}
		var mr mapResponse
		if err := json.Unmarshal(resp, &mr); err != nil {
			s.svc.Close()
			return nil, fmt.Errorf("/v1/map: %w", err)
		}
		inst := &in.ins[i]
		ev := model.NewEvaluator(inst.g, inst.p).WithSchedules(inst.schedules, inst.seed)
		m := mapping.Mapping(mr.Mapping)
		if err := gateServedMap(ev, m, &mr); err != nil {
			r.problems = append(r.problems, fmt.Sprintf("/v1/map instance %d: %v", i, err))
		}
		inst.base = m
		s.handles = append(s.handles, mr.Instance)
		s.incumbents = append(s.incumbents, m)
		s.engines = append(s.engines, ev.Engine().WithWorkers(1))
	}
	rng := rand.New(rand.NewSource(in.warm))
	replies := make([]svcReply, 2*svcInstances)
	for k := range replies {
		i, mvs := s.draw(rng)
		code, body := s.post("/v1/evaluate", s.body(i, mvs, false))
		replies[k], _ = reply(code, body)
	}
	for _, err := range s.gate(in.warm, replies) {
		if err != nil {
			r.problems = append(r.problems, "warm-up: "+err.Error())
		}
	}
	return s, nil
}

// gateServedMap checks a /v1/map response against the reference
// simulation and the bound certificate it claims.
func gateServedMap(ev *model.Evaluator, m mapping.Mapping, mr *mapResponse) error {
	baseline := ev.ReferenceMakespan(mapping.Baseline(ev.G, ev.P))
	if err := gateMapping(ev, m, mr.Makespan, baseline); err != nil {
		return err
	}
	if want := (baseline - mr.Makespan) / baseline; math.Float64bits(want) != math.Float64bits(mr.Improvement) {
		return fmt.Errorf("improvement %v, reference says %v", mr.Improvement, want)
	}
	if mr.LowerBound > mr.Makespan || bounds.Gap(mr.Makespan, mr.LowerBound) != mr.Gap {
		return fmt.Errorf("bound %v and gap %v do not certify makespan %v", mr.LowerBound, mr.Gap, mr.Makespan)
	}
	return nil
}

// draw draws one request: its instance, so both clients work around
// every shared incumbent and their requests can share a flush, and its
// candidates around that instance's incumbent, each with its tasks in
// ascending order.
func (s *svcState) draw(rng *rand.Rand) (int, [svcMoves]move) {
	i := rng.Intn(svcInstances)
	var mvs [svcMoves]move
	devs := uncappedDevices(s.in.ins[i].p)
	n := len(s.incumbents[i])
	for j := range mvs {
		tasks := make([]graph.NodeID, svcMoveTasks)
		for k, v := range rng.Perm(n)[:svcMoveTasks] {
			tasks[k] = graph.NodeID(v)
		}
		slices.Sort(tasks)
		mvs[j] = move{tasks: tasks, device: devs[rng.Intn(len(devs))]}
	}
	return i, mvs
}

// moveKey identifies the mapping a candidate makes from its base: the
// tasks it really moves, in ascending order and padded with -1, then
// their device (-1 when it moves none and the mapping is the base).
type moveKey [svcMoveTasks + 1]graph.NodeID

func keyOf(base mapping.Mapping, m move) moveKey {
	var key moveKey
	for i := range key {
		key[i] = -1
	}
	n := 0
	for _, t := range m.tasks {
		if base[t] != m.device {
			key[n] = t
			n++
		}
	}
	if n > 0 {
		key[svcMoveTasks] = graph.NodeID(m.device)
	}
	return key
}

// body encodes a patch-form evaluate request addressed by handle.
func (s *svcState) body(i int, mvs [svcMoves]move, timing bool) []byte {
	wire := evaluateRequest{Instance: s.handles[i], Base: s.incumbents[i], Timing: timing}
	for _, m := range mvs {
		wire.Moves = append(wire.Moves, wireMove{m.tasks, m.device})
	}
	b, _ := json.Marshal(wire) // plain structs of ints: cannot fail
	return b
}

// svcReply is what one request got back: the status and the served
// makespans (NaN where the response held none).
type svcReply struct {
	code int
	n    int
	ms   [svcMoves]float64
}

func reply(code int, body []byte) (svcReply, *service.Timing) {
	rp := svcReply{code: code}
	var er evaluateResponse
	if json.Unmarshal(body, &er) != nil {
		return rp, nil // n = 0: the gate fails the request
	}
	rp.n = len(er.Makespans)
	for j, v := range er.Makespans {
		if j == svcMoves {
			break
		}
		rp.ms[j] = math.NaN()
		if v != nil {
			rp.ms[j] = *v
		}
	}
	return rp, er.Timing
}

// gate is the per-request check: status 200 and every served makespan
// equal, bit for bit, to the benchmark's own engine on the same
// candidate. The requests are drawn again from the client's seed rather
// than kept during the run, so the run's memory is the service's, not a
// log's. The engine evaluates each distinct candidate once, per
// instance in batches around the shared incumbent; a repeat is compared
// with that value.
func (s *svcState) gate(seed int64, replies []svcReply) []error {
	errs := make([]error, len(replies))
	rng := rand.New(rand.NewSource(seed))
	type slot struct {
		k, j int
		key  moveKey
	}
	slots := make([][]slot, svcInstances)
	ops := make([][]eval.Op, svcInstances)
	known := make([]map[moveKey]float64, svcInstances)
	for i := range known {
		known[i] = map[moveKey]float64{}
	}
	compare := func(k, j int, want float64) {
		if got := replies[k].ms[j]; errs[k] == nil && math.Float64bits(got) != math.Float64bits(want) {
			errs[k] = fmt.Errorf("request %d candidate %d: served %v, engine says %v", k, j, got, want)
		}
	}
	flush := func(i int) {
		if len(ops[i]) == 0 {
			return
		}
		for n, v := range s.engines[i].EvaluateBatch(ops[i], math.Inf(1)) {
			sl := slots[i][n]
			compare(sl.k, sl.j, v)
			known[i][sl.key] = v
		}
		slots[i], ops[i] = slots[i][:0], ops[i][:0]
	}
	for k := range replies {
		i, mvs := s.draw(rng)
		switch rp := &replies[k]; {
		case rp.code != http.StatusOK:
			errs[k] = fmt.Errorf("request %d: status %d", k, rp.code)
			continue
		case rp.n != svcMoves:
			errs[k] = fmt.Errorf("request %d: %d makespans for %d candidates", k, rp.n, svcMoves)
			continue
		}
		for j, m := range mvs {
			key := keyOf(s.incumbents[i], m)
			if v, ok := known[i][key]; ok {
				compare(k, j, v)
				continue
			}
			slots[i] = append(slots[i], slot{k, j, key})
			ops[i] = append(ops[i], eval.Op{Base: s.incumbents[i], Patch: m.tasks, Device: m.device})
		}
		if len(ops[i]) >= 1024 {
			flush(i)
		}
	}
	for i := range ops {
		flush(i)
	}
	return errs
}

// svcTotals sums the service's per-instance cache and batcher counters.
type svcTotals struct{ hits, misses, flushes, flushed, cross float64 }

func totals(st service.Stats) svcTotals {
	var t svcTotals
	for _, in := range st.Instances {
		t.hits += float64(in.CacheHits)
		t.misses += float64(in.CacheMisses)
		t.flushes += float64(in.Flushes)
		t.flushed += float64(in.FlushedOps)
		t.cross += float64(in.CrossFlushes)
	}
	return t
}

// svcClientLog is what one client recorded.
type svcClientLog struct {
	replies            []svcReply
	codec, queue, wait []float64 // us
	evalUS             []float64
}

// probeService sets up a service, runs the two clients for
// svcProbeRequests requests each, every request sent with "timing":
// true, and then gates every response. The service's own per-request
// Timing splits each request into queue, flush wait, evaluation and
// respond; the client's encode and decode are the codec cost.
func probeService(r *report, tr *tracer, seed int64) error {
	st, err := svcSetUp(seed, r)
	if err != nil {
		return err
	}
	defer st.svc.Close()
	before := totals(st.svc.Snapshot())
	logs := make([]svcClientLog, svcClients)
	var done sync.WaitGroup
	for cl := range logs {
		done.Add(1)
		go func(cl int) {
			defer done.Done()
			lg := &logs[cl]
			rng := rand.New(rand.NewSource(st.in.clients[cl]))
			for k := 0; k < svcProbeRequests; k++ {
				e0 := time.Now()
				i, mvs := st.draw(rng)
				body := st.body(i, mvs, true)
				e1 := time.Now()
				code, resp := st.post("/v1/evaluate", body)
				t1 := time.Now()
				rp, tm := reply(code, resp)
				lg.replies = append(lg.replies, rp)
				t2 := time.Now()
				op := cl<<32 | k
				root := tr.add("client.op", e0, t2, -1, op)
				tr.add("client.encode", e0, e1, root, op)
				tr.add("service.request", e1, t1, root, op)
				tr.add("client.decode", t1, t2, root, op)
				lg.codec = append(lg.codec, float64(e1.Sub(e0)+t2.Sub(t1))/1e3)
				if tm != nil && tm.Ops > 0 {
					lg.queue = append(lg.queue, float64(tm.QueueUS))
					lg.wait = append(lg.wait, float64(tm.BatchUS)/float64(tm.Ops))
					lg.evalUS = append(lg.evalUS, float64(tm.EvalUS))
				}
			}
		}(cl)
	}
	done.Wait()
	after := totals(st.svc.Snapshot())

	// Gate, after the loop so checking never competes with the clients
	// for the one processor.
	var codec, queue, wait, evalUS []float64
	for cl := range logs {
		lg := &logs[cl]
		for _, err := range st.gate(st.in.clients[cl], lg.replies) {
			if err != nil {
				r.problems = append(r.problems, fmt.Sprintf("service probe: client %d: %v", cl, err))
			}
		}
		codec = append(codec, lg.codec...)
		queue = append(queue, lg.queue...)
		wait = append(wait, lg.wait...)
		evalUS = append(evalUS, lg.evalUS...)
	}
	n := float64(svcClients * svcProbeRequests)
	flushes := after.flushes - before.flushes
	r.set("batcher.flush_ops", ratio(after.flushed-before.flushed, flushes))
	r.set("batcher.cross_flush_share", ratio(after.cross-before.cross, flushes))
	r.set("batcher.flushes_per_req", flushes/n)
	r.set("service.queue_us", mean(queue))
	r.set("service.batch_wait_us", mean(wait))
	r.set("service.eval_us", mean(evalUS))
	var respond []float64
	for _, t := range st.svc.Snapshot().Timings {
		if t.Endpoint == "evaluate" && t.Status == http.StatusOK {
			respond = append(respond, float64(t.RespondUS))
		}
	}
	r.set("service.respond_us", mean(respond))
	r.set("client.codec_us", mean(codec))
	hits := after.hits - before.hits
	r.note("service probe: %d requests; the service's cache served %.3f of their candidates",
		int(n), ratio(hits, hits+after.misses-before.misses))
	return nil
}
