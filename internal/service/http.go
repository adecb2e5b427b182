package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"spmap/internal/eval"
	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mappers/decomp"
	"spmap/internal/mappers/heft"
	"spmap/internal/mappers/localsearch"
	"spmap/internal/mapping"
	"spmap/internal/online"
	"spmap/internal/platform"
	"spmap/internal/portfolio"
)

// statusClientGone is reported when the client abandoned the request
// before its evaluation finished (nginx's 499 convention; Go has no
// constant for it).
const statusClientGone = 499

// routes builds the endpoint mux.
func (s *Service) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/map", s.wrap("map", s.handleMap))
	mux.HandleFunc("/v1/refine", s.wrap("refine", s.handleRefine))
	mux.HandleFunc("/v1/evaluate", s.wrap("evaluate", s.handleEvaluate))
	mux.HandleFunc("/v1/replay", s.wrap("replay", s.handleReplay))
	mux.HandleFunc("/v1/snapshot", s.wrap("snapshot", s.handleSnapshot))
	return mux
}

// httpError carries a status code out of a handler body.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, a ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, a...)}
}

// requestBase holds the fields shared by every POST body. Graph and
// Platform stay raw until validated; Schedules is a pointer so "absent"
// (default 100) and "0" (BFS-only cost function) stay distinguishable.
//
// Instance references a warm instance by the key earlier responses
// returned, instead of resending the graph — the cheap steady-state
// shape for clients that keep querying the same problem. Graph,
// platform and schedules are fixed at instance creation and must be
// absent on handle requests; seed stays available as the algorithm
// seed.
type requestBase struct {
	ID        string          `json:"id,omitempty"`
	Instance  string          `json:"instance,omitempty"`
	Graph     json.RawMessage `json:"graph,omitempty"`
	Platform  json.RawMessage `json:"platform,omitempty"`
	Schedules *int            `json:"schedules,omitempty"`
	Seed      int64           `json:"seed,omitempty"`
	Timing    bool            `json:"timing,omitempty"`
}

// errorResponse is the JSON error body.
type errorResponse struct {
	Error string `json:"error"`
}

// handlerBody is a typed endpoint body: decode happened, the response
// value (marshaled by wrap) or an error comes back.
type handlerBody func(ctx context.Context, body []byte, t *Timing, sink *eval.BatchTiming) (any, error)

// wrap is the shared request shell: method/shutdown gating, body cap,
// phase timing, response marshaling, and the timing ring. The response
// is marshaled before any write so handler errors can still change the
// status code.
func (s *Service) wrap(endpoint string, h handlerBody) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Add(1)
		t := Timing{Endpoint: endpoint, Coalesced: !s.opt.NoCoalesce}
		sink := new(eval.BatchTiming)

		status := http.StatusOK
		var out any
		switch {
		case r.Method != http.MethodPost:
			status, out = http.StatusMethodNotAllowed, errorResponse{"POST only"}
		case s.isClosed():
			status, out = http.StatusServiceUnavailable, errorResponse{"shutting down"}
		default:
			body, err := readBody(w, r, s.opt.MaxBodyBytes)
			if err == nil {
				out, err = h(r.Context(), body, &t, sink)
			}
			if err != nil {
				status, out = errStatus(err), errorResponse{err.Error()}
			}
		}

		waitNS, evalNS, ops, flushes := sink.Snapshot()
		t.BatchUS, t.EvalUS = waitNS/1e3, evalNS/1e3
		t.Ops, t.Flushes = ops, flushes
		t.Status = status
		// Queue covers everything before the response encode that is
		// not batch wait or evaluation.
		respondStart := time.Now()
		t.QueueUS = respondStart.Sub(start).Microseconds() - t.BatchUS - t.EvalUS
		if t.QueueUS < 0 {
			t.QueueUS = 0
		}
		if tr, ok := out.(timedResponse); ok && tr.timingRequested() {
			// The embedded copy cannot include its own encode time
			// (RespondUS stays 0 there); Total is provisional. The
			// /v1/stats ring record carries the final values.
			t.TotalUS = respondStart.Sub(start).Microseconds()
			tr.attachTiming(&t)
		}
		buf, merr := json.Marshal(out)
		if merr != nil {
			status = http.StatusInternalServerError
			buf, _ = json.Marshal(errorResponse{merr.Error()})
			t.Status = status
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(append(buf, '\n'))
		t.RespondUS = time.Since(respondStart).Microseconds()
		t.TotalUS = time.Since(start).Microseconds()
		s.timings.add(t)
	}
}

// timedResponse lets response types opt into carrying the request's
// Timing record when the client asked for it.
type timedResponse interface {
	timingRequested() bool
	attachTiming(*Timing)
}

func (s *Service) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// readBody reads the capped request body.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	defer body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body over %d bytes", maxBytes)}
		}
		return nil, badRequest("reading body: %v", err)
	}
	return buf.Bytes(), nil
}

// errStatus maps handler errors to HTTP statuses.
func errStatus(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return statusClientGone
	}
	return http.StatusInternalServerError
}

// decodeStrict unmarshals JSON rejecting unknown fields — a typo'd
// option in a request must fail loudly, not silently select a default.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("request: %v", err)
	}
	if dec.More() {
		return badRequest("request: trailing data after JSON object")
	}
	return nil
}

// resolve validates the shared request fields and returns the warm
// instance serving them. Repeat requests (byte-identical graph and
// platform payloads) hit the raw-bytes fast path and skip JSON decoding
// and validation entirely — the slow path validated those exact bytes
// when it recorded them.
func (s *Service) resolve(b *requestBase, t *Timing) (*instance, error) {
	if b.Instance != "" {
		if len(b.Graph) != 0 || len(b.Platform) != 0 || b.Schedules != nil {
			return nil, badRequest("request: graph, platform and schedules are fixed at instance creation and must be absent with an instance handle")
		}
		in := s.lookupInstance(b.Instance)
		if in == nil {
			return nil, &httpError{status: http.StatusNotFound,
				msg: fmt.Sprintf("unknown instance %q (evicted or never created)", b.Instance)}
		}
		in.requests.Add(1)
		t.ID, t.Instance = b.ID, in.key
		return in, nil
	}
	if len(b.Graph) == 0 {
		return nil, badRequest("request: missing graph")
	}
	schedules := 100
	if b.Schedules != nil {
		schedules = *b.Schedules
	}
	if schedules < 0 || schedules > s.opt.MaxSchedules {
		return nil, badRequest("schedules %d outside [0, %d]", schedules, s.opt.MaxSchedules)
	}
	seed := b.Seed
	if seed == 0 {
		seed = 1
	}
	if in, ok := s.fastInstance(b.Graph, b.Platform, schedules, seed); ok {
		in.requests.Add(1)
		t.ID, t.Instance = b.ID, in.key
		return in, nil
	}

	g := &graph.DAG{}
	if err := g.UnmarshalJSON(b.Graph); err != nil {
		return nil, badRequest("%v", err)
	}
	if g.NumTasks() == 0 {
		return nil, badRequest("graph: no tasks")
	}
	p := s.opt.Platform
	if len(b.Platform) != 0 {
		var pp platform.Platform
		if err := json.Unmarshal(b.Platform, &pp); err != nil {
			return nil, badRequest("%v", err)
		}
		if err := pp.Validate(); err != nil {
			return nil, badRequest("%v", err)
		}
		p = &pp
	}
	in, err := s.getInstance(g, p, schedules, seed)
	if err != nil {
		return nil, err
	}
	s.recordRaw(b.Graph, b.Platform, schedules, seed, in)
	in.requests.Add(1)
	t.ID, t.Instance = b.ID, in.key
	return in, nil
}

// checkBudget validates an evaluation budget (0 selects def).
func (s *Service) checkBudget(budget int, def int) (int, error) {
	if budget == 0 {
		budget = def
	}
	if budget <= 0 || budget > s.opt.MaxBudget {
		return 0, badRequest("budget %d outside [1, %d]", budget, s.opt.MaxBudget)
	}
	return budget, nil
}

// checkMapping validates a client mapping against the instance.
func checkMapping(in *instance, m []int, what string) (mapping.Mapping, error) {
	if len(m) != in.g.NumTasks() {
		return nil, badRequest("%s: length %d, graph has %d tasks", what, len(m), in.g.NumTasks())
	}
	nd := in.p.NumDevices()
	for v, d := range m {
		if d < 0 || d >= nd {
			return nil, badRequest("%s: task %d mapped to device %d outside [0, %d)", what, v, d, nd)
		}
	}
	return mapping.Mapping(m), nil
}

// --- /v1/map ---------------------------------------------------------

type mapRequest struct {
	requestBase
	Algo   string  `json:"algo,omitempty"`
	Budget int     `json:"budget,omitempty"`
	Gamma  float64 `json:"gamma,omitempty"`
	Refine bool    `json:"refine,omitempty"`
	// GapTarget arms the portfolio's certified-gap early stop (portfolio
	// only; in [0, 1), 0 = run the full budget).
	GapTarget float64 `json:"gap_target,omitempty"`
}

type mapResponse struct {
	ID string `json:"id,omitempty"`
	// Instance is the warm-instance key; later requests may send it in
	// place of the graph.
	Instance    string  `json:"instance"`
	Algo        string  `json:"algo"`
	Mapping     []int   `json:"mapping"`
	Makespan    float64 `json:"makespan"`
	Improvement float64 `json:"improvement"`
	Evaluations int     `json:"evaluations"`
	// LowerBound/Gap report the portfolio's certified makespan lower
	// bound and the result's certified optimality gap; GapStop marks a
	// race that terminated early at the requested gap_target, with
	// BudgetSaved evaluations left unspent. Portfolio runs only.
	LowerBound  float64 `json:"lowerBound,omitempty"`
	Gap         float64 `json:"gap,omitempty"`
	GapStop     bool    `json:"gapStop,omitempty"`
	BudgetSaved int     `json:"budgetSaved,omitempty"`
	Timing      *Timing `json:"timing,omitempty"`

	wantTiming bool
}

func (r *mapResponse) timingRequested() bool { return r.wantTiming }
func (r *mapResponse) attachTiming(t *Timing) {
	c := *t
	r.Timing = &c
}

// mapAlgos is the /v1/map algorithm vocabulary.
var mapAlgos = map[string]bool{
	"singlenode": true, "seriesparallel": true, "snfirstfit": true,
	"spfirstfit": true, "gamma": true, "heft": true, "peft": true,
	"anneal": true, "hillclimb": true, "portfolio": true,
}

func (s *Service) handleMap(ctx context.Context, body []byte, t *Timing, sink *eval.BatchTiming) (any, error) {
	var rq mapRequest
	if err := decodeStrict(body, &rq); err != nil {
		return nil, err
	}
	algo := rq.Algo
	if algo == "" {
		algo = "spfirstfit"
	}
	if !mapAlgos[algo] {
		return nil, badRequest("unknown algorithm %q", algo)
	}
	gamma := rq.Gamma
	if gamma == 0 {
		gamma = 2
	}
	if !(gamma >= 1) || math.IsInf(gamma, 1) {
		return nil, badRequest("gamma %v must be a finite number >= 1", rq.Gamma)
	}
	budget, err := s.checkBudget(rq.Budget, 50100)
	if err != nil {
		return nil, err
	}
	if rq.GapTarget != 0 {
		if !(rq.GapTarget > 0 && rq.GapTarget < 1) {
			return nil, badRequest("gap_target %v must be in [0, 1)", rq.GapTarget)
		}
		if algo != "portfolio" {
			return nil, badRequest("gap_target applies to the portfolio algorithm only, not %q", algo)
		}
	}
	in, err := s.resolve(&rq.requestBase, t)
	if err != nil {
		return nil, err
	}
	ev := in.evaluator(sink)
	seed := rq.Seed
	if seed == 0 {
		seed = 1
	}

	var m mapping.Mapping
	evals := 0
	var pfStats *portfolio.Stats
	runDecomp := func(strategy decomp.Strategy, h decomp.Heuristic, gamma float64) error {
		mm, st, err := decomp.MapWithEvaluator(ev, decomp.Options{
			Strategy: strategy, Heuristic: h, Gamma: gamma, Workers: s.opt.Workers,
		})
		m, evals = mm, st.Evaluations
		return err
	}
	switch algo {
	case "singlenode":
		err = runDecomp(decomp.SingleNode, decomp.Basic, 0)
	case "seriesparallel":
		err = runDecomp(decomp.SeriesParallel, decomp.Basic, 0)
	case "snfirstfit":
		err = runDecomp(decomp.SingleNode, decomp.FirstFit, 0)
	case "spfirstfit":
		err = runDecomp(decomp.SeriesParallel, decomp.FirstFit, 0)
	case "gamma":
		err = runDecomp(decomp.SeriesParallel, decomp.GammaThreshold, gamma)
	case "heft":
		m = heft.MapWithEvaluator(ev, heft.HEFT)
	case "peft":
		m = heft.MapWithEvaluator(ev, heft.PEFT)
	case "anneal", "hillclimb":
		alg := localsearch.Anneal
		if algo == "hillclimb" {
			alg = localsearch.HillClimb
		}
		var st localsearch.Stats
		m, st, err = localsearch.Refine(ev, mapping.Baseline(in.g, in.p), localsearch.Options{
			Algorithm: alg, Seed: seed, Workers: s.opt.Workers, Budget: budget,
		})
		evals = st.Evaluations
	case "portfolio":
		var st portfolio.Stats
		m, st, err = portfolio.MapWithEvaluator(ev, portfolio.Options{
			Seed: seed, Workers: s.opt.Workers, Budget: budget, GapTarget: rq.GapTarget,
		})
		evals, pfStats = st.Evaluations, &st
	}
	if err != nil {
		return nil, err
	}
	if rq.Refine && algo != "anneal" && algo != "hillclimb" && algo != "portfolio" {
		var st localsearch.Stats
		m, st, err = localsearch.Refine(ev, m, localsearch.Options{
			Seed: seed, Workers: s.opt.Workers, Budget: budget,
		})
		if err != nil {
			return nil, err
		}
		evals += st.Evaluations
	}
	ms := ev.Makespan(m)
	resp := &mapResponse{
		ID: rq.ID, Instance: in.key, Algo: algo, Mapping: m, Makespan: ms,
		Improvement: ev.RelativeImprovement(ms), Evaluations: evals,
		wantTiming: rq.Timing,
	}
	if pfStats != nil {
		resp.LowerBound, resp.Gap = pfStats.LowerBound, pfStats.Gap
		resp.GapStop, resp.BudgetSaved = pfStats.GapStop, pfStats.BudgetSaved
		t.Gap, t.GapStop = pfStats.Gap, pfStats.GapStop
	}
	return resp, nil
}

// --- /v1/refine ------------------------------------------------------

type refineRequest struct {
	requestBase
	Mapping []int  `json:"mapping"`
	Algo    string `json:"algo,omitempty"` // anneal (default) or hillclimb
	Budget  int    `json:"budget,omitempty"`
}

func (s *Service) handleRefine(ctx context.Context, body []byte, t *Timing, sink *eval.BatchTiming) (any, error) {
	var rq refineRequest
	if err := decodeStrict(body, &rq); err != nil {
		return nil, err
	}
	alg, name := localsearch.Anneal, "anneal"
	switch rq.Algo {
	case "", "anneal":
	case "hillclimb":
		alg, name = localsearch.HillClimb, "hillclimb"
	default:
		return nil, badRequest("unknown refine algorithm %q (anneal, hillclimb)", rq.Algo)
	}
	budget, err := s.checkBudget(rq.Budget, 50100)
	if err != nil {
		return nil, err
	}
	in, err := s.resolve(&rq.requestBase, t)
	if err != nil {
		return nil, err
	}
	m, err := checkMapping(in, rq.Mapping, "mapping")
	if err != nil {
		return nil, err
	}
	seed := rq.Seed
	if seed == 0 {
		seed = 1
	}
	ev := in.evaluator(sink)
	refined, st, err := localsearch.Refine(ev, m, localsearch.Options{
		Algorithm: alg, Seed: seed, Workers: s.opt.Workers, Budget: budget,
	})
	if err != nil {
		return nil, err
	}
	ms := ev.Makespan(refined)
	return &mapResponse{
		ID: rq.ID, Instance: in.key, Algo: "refine-" + name, Mapping: refined, Makespan: ms,
		Improvement: ev.RelativeImprovement(ms), Evaluations: st.Evaluations,
		wantTiming: rq.Timing,
	}, nil
}

// --- /v1/evaluate ----------------------------------------------------

// evalMove is one patch-form candidate: the base with the listed tasks
// remapped to one device.
type evalMove struct {
	Tasks  []int `json:"tasks"`
	Device int   `json:"device"`
}

type evaluateRequest struct {
	requestBase
	// Mappings are whole-mapping candidates. Alternatively Base+Moves
	// state candidates as patches of one incumbent mapping — the shape
	// local-search clients produce. Patch-form requests are what the
	// cross-request coalescer amortizes best: the service interns equal
	// bases, so candidates from different concurrent requests around the
	// same incumbent share one recorded base prefix per flush instead of
	// each request replaying the common prefix itself.
	Mappings [][]int    `json:"mappings,omitempty"`
	Base     []int      `json:"base,omitempty"`
	Moves    []evalMove `json:"moves,omitempty"`
	// Cutoff bounds each evaluation (0 = exact): results at or below it
	// are exact makespans; candidates above it are reported as null.
	// (Engine-internal over-cutoff values are lower-bound certificates
	// whose magnitude depends on the evaluation path, so leaking them
	// would break the byte-determinism contract.)
	Cutoff float64 `json:"cutoff,omitempty"`
	Energy bool    `json:"energy,omitempty"`
}

type evaluateResponse struct {
	ID string `json:"id,omitempty"`
	// Instance is the warm-instance key; later requests may send it in
	// place of the graph.
	Instance string `json:"instance"`
	// Makespans aligns with the request's candidates; null marks a
	// candidate whose makespan exceeds the cutoff.
	Makespans []*float64 `json:"makespans"`
	Energies  []float64  `json:"energies,omitempty"`
	Timing    *Timing    `json:"timing,omitempty"`

	wantTiming bool
}

func (r *evaluateResponse) timingRequested() bool { return r.wantTiming }
func (r *evaluateResponse) attachTiming(t *Timing) {
	c := *t
	r.Timing = &c
}

func (s *Service) handleEvaluate(ctx context.Context, body []byte, t *Timing, sink *eval.BatchTiming) (any, error) {
	var rq evaluateRequest
	if err := decodeStrict(body, &rq); err != nil {
		return nil, err
	}
	patchForm := len(rq.Base) > 0 || len(rq.Moves) > 0
	switch {
	case patchForm && len(rq.Mappings) > 0:
		return nil, badRequest("request: mappings and base/moves are mutually exclusive")
	case patchForm && (len(rq.Base) == 0 || len(rq.Moves) == 0):
		return nil, badRequest("request: base and moves must be supplied together")
	case !patchForm && len(rq.Mappings) == 0:
		return nil, badRequest("request: no mappings")
	}
	candidates := len(rq.Mappings)
	if patchForm {
		candidates = len(rq.Moves)
	}
	if candidates > s.opt.MaxMappings {
		return nil, badRequest("request: %d candidates over the %d cap", candidates, s.opt.MaxMappings)
	}
	if math.IsNaN(rq.Cutoff) || rq.Cutoff < 0 {
		return nil, badRequest("cutoff %v must be >= 0", rq.Cutoff)
	}
	in, err := s.resolve(&rq.requestBase, t)
	if err != nil {
		return nil, err
	}
	ops := make([]eval.Op, candidates)
	if patchForm {
		base, err := checkMapping(in, rq.Base, "base")
		if err != nil {
			return nil, err
		}
		shared := in.internBase(base)
		n, nd := in.g.NumTasks(), in.p.NumDevices()
		for i, mv := range rq.Moves {
			if len(mv.Tasks) == 0 {
				return nil, badRequest("moves[%d]: empty task list", i)
			}
			patch := make([]graph.NodeID, len(mv.Tasks))
			for j, v := range mv.Tasks {
				if v < 0 || v >= n {
					return nil, badRequest("moves[%d]: task %d outside [0, %d)", i, v, n)
				}
				patch[j] = graph.NodeID(v)
			}
			if mv.Device < 0 || mv.Device >= nd {
				return nil, badRequest("moves[%d]: device %d outside [0, %d)", i, mv.Device, nd)
			}
			ops[i] = eval.Op{Base: shared, Patch: patch, Device: mv.Device}
		}
	} else {
		for i, mi := range rq.Mappings {
			m, err := checkMapping(in, mi, fmt.Sprintf("mappings[%d]", i))
			if err != nil {
				return nil, err
			}
			ops[i] = eval.Op{Base: m}
		}
	}
	cutoff := rq.Cutoff
	if cutoff == 0 {
		cutoff = math.Inf(1)
	}
	eng := in.coal.WithBatchTiming(sink)
	resp := &evaluateResponse{ID: rq.ID, Instance: in.key, wantTiming: rq.Timing}
	if rq.Energy {
		// The fused vector pass computes exact energies alongside;
		// cutoffs only clamp makespans.
		cols := eng.EvaluateBatchVec(ops, []eval.Objective{eval.MakespanObjective(), eval.EnergyObjective()}, cutoff)
		resp.Makespans = clampCutoff(cols[0], cutoff)
		resp.Energies = cols[1]
		return resp, nil
	}
	out, err := eng.EvaluateBatchCtx(ctx, ops, cutoff)
	if err != nil {
		return nil, err
	}
	resp.Makespans = clampCutoff(out, cutoff)
	return resp, nil
}

// clampCutoff nulls every over-cutoff result: an engine value above the
// cutoff is a lower-bound certificate whose magnitude depends on the
// evaluation path taken (full replay, prefix resume, cached exact), so
// only its "worse than cutoff" meaning is stable enough to serve.
func clampCutoff(ms []float64, cutoff float64) []*float64 {
	out := make([]*float64, len(ms))
	for i := range ms {
		if ms[i] <= cutoff {
			v := ms[i]
			out[i] = &v
		}
	}
	return out
}

// --- /v1/replay ------------------------------------------------------

type replayRequest struct {
	requestBase
	// Snapshot resumes a stored replay state by the handle /v1/snapshot
	// returned instead of starting fresh; graph, platform, schedules and
	// instance are fixed by the snapshot and must be absent with it.
	Snapshot string          `json:"snapshot,omitempty"`
	Scenario json.RawMessage `json:"scenario"`
	Budget   int             `json:"budget,omitempty"` // per-event repair budget
	Repair   string          `json:"repair,omitempty"` // refine (default) or portfolio
}

type replayResponse struct {
	ID string `json:"id,omitempty"`
	// Instance is the warm-instance key; later requests may send it in
	// place of the graph. Empty on snapshot-resumed replays, which echo
	// the source handle in Snapshot instead.
	Instance      string  `json:"instance,omitempty"`
	Snapshot      string  `json:"snapshot,omitempty"`
	Mapping       []int   `json:"mapping"`
	FinalMakespan float64 `json:"finalMakespan"`
	Events        int     `json:"events"`
	Evaluations   int     `json:"evaluations"`
	Timing        *Timing `json:"timing,omitempty"`

	wantTiming bool
}

func (r *replayResponse) timingRequested() bool { return r.wantTiming }
func (r *replayResponse) attachTiming(t *Timing) {
	c := *t
	r.Timing = &c
}

// parseRepair maps the request vocabulary onto online.RepairMode.
func parseRepair(name string) (online.RepairMode, error) {
	switch name {
	case "", "refine":
		return online.RepairRefine, nil
	case "portfolio":
		return online.RepairPortfolio, nil
	default:
		return 0, badRequest("unknown repair mode %q (refine, portfolio)", name)
	}
}

// readScenario parses a request scenario — gen.ReadScenario already
// rejects unknown fields, trailing data, non-finite timestamps and
// malformed events — and enforces the service-level event-count cap.
func (s *Service) readScenario(raw json.RawMessage) (gen.Scenario, error) {
	sc, err := gen.ReadScenario(bytes.NewReader(raw))
	if err != nil {
		return gen.Scenario{}, badRequest("%v", err)
	}
	if len(sc.Events) > s.opt.MaxScenarioEvents {
		return gen.Scenario{}, badRequest("scenario: %d events over the %d cap", len(sc.Events), s.opt.MaxScenarioEvents)
	}
	return sc, nil
}

// checkSnapshotBase rejects request fields a snapshot handle fixes.
func checkSnapshotBase(b *requestBase) error {
	if b.Instance != "" || len(b.Graph) != 0 || len(b.Platform) != 0 || b.Schedules != nil {
		return badRequest("request: graph, platform, schedules and instance are fixed by the snapshot and must be absent with a snapshot handle")
	}
	return nil
}

// restoreSnapshot resolves a snapshot handle into a live replay
// instance. Zero fields of opt inherit the snapshot's trace-relevant
// options; non-zero fields must match them or Restore rejects the
// combination (mapped to 400 — resuming onto a diverging trace is a
// caller error).
func (s *Service) restoreSnapshot(handle string, opt online.Options) (*online.Instance, error) {
	data := s.lookupSnapshot(handle)
	if data == nil {
		return nil, &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("unknown snapshot %q (evicted or never created)", handle)}
	}
	snap, err := online.DecodeSnapshot(data)
	if err != nil {
		// The table only holds bytes Encode produced; failing to decode
		// them is a server defect, not a client one.
		return nil, fmt.Errorf("stored snapshot %s: %w", handle, err)
	}
	inst, err := online.Restore(snap, opt)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return inst, nil
}

func (s *Service) handleReplay(ctx context.Context, body []byte, t *Timing, sink *eval.BatchTiming) (any, error) {
	var rq replayRequest
	if err := decodeStrict(body, &rq); err != nil {
		return nil, err
	}
	if len(rq.Scenario) == 0 {
		return nil, badRequest("request: missing scenario")
	}
	repair, err := parseRepair(rq.Repair)
	if err != nil {
		return nil, err
	}
	sc, err := s.readScenario(rq.Scenario)
	if err != nil {
		return nil, err
	}

	if rq.Snapshot != "" {
		// Resume path: restore the stored state and apply the scenario as
		// the tail of that replay. Budget, repair and seed inherit from
		// the snapshot when zero ("" repair also inherits); supplied
		// values must match the snapshot's.
		if err := checkSnapshotBase(&rq.requestBase); err != nil {
			return nil, err
		}
		if rq.Budget != 0 {
			if _, err := s.checkBudget(rq.Budget, 0); err != nil {
				return nil, err
			}
		}
		inst, err := s.restoreSnapshot(rq.Snapshot, online.Options{
			Seed: rq.Seed, Workers: s.opt.Workers,
			RepairBudget: rq.Budget, Repair: repair,
		})
		if err != nil {
			return nil, err
		}
		t.ID = rq.ID
		for _, e := range sc.Events {
			// Tail events replay against the snapshot's evolved platform
			// and arrival groups, so they are checked where that state
			// lives: Step's typed per-event errors are caller errors.
			if err := inst.Step(e); err != nil {
				return nil, badRequest("%v", err)
			}
		}
		st := inst.Stats()
		return &replayResponse{
			ID: rq.ID, Snapshot: rq.Snapshot, Mapping: inst.Mapping(),
			FinalMakespan: st.FinalMakespan, Events: inst.Events(),
			Evaluations: st.TotalEvaluations, wantTiming: rq.Timing,
		}, nil
	}

	budget, err := s.checkBudget(rq.Budget, 3000)
	if err != nil {
		return nil, err
	}
	// Replay mutates graph and platform per event, rebuilding kernels as
	// it goes — warm instances cannot serve it. The instance is still
	// resolved for validation and the timing record; the replay itself
	// runs cold on private copies.
	in, err := s.resolve(&rq.requestBase, t)
	if err != nil {
		return nil, err
	}
	// Pre-flight the event stream against the platform shape before any
	// evaluation is spent: out-of-range or duplicate device failures,
	// protected-default failures and dangling departures all fail here
	// with the event index, not minutes into the replay.
	if err := sc.ValidateFor(in.p.NumDevices(), in.p.Default); err != nil {
		return nil, badRequest("%v", err)
	}
	seed := rq.Seed
	if seed == 0 {
		seed = 1
	}
	m, st, err := online.Replay(in.g, in.p, sc, online.Options{
		Schedules: in.schedules, Seed: seed, Workers: s.opt.Workers,
		RepairBudget: budget, Repair: repair,
	})
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return &replayResponse{
		ID: rq.ID, Instance: in.key, Mapping: m, FinalMakespan: st.FinalMakespan,
		Events: len(st.Events), Evaluations: st.TotalEvaluations,
		wantTiming: rq.Timing,
	}, nil
}

// --- /v1/snapshot ----------------------------------------------------

// snapshotRequest creates a stored replay state: either fresh from a
// graph/platform (or warm-instance handle) with an optional scenario
// prefix applied, or continued from an earlier snapshot with more
// events. The response's handle resumes the state on /v1/replay or
// extends it with another /v1/snapshot.
type snapshotRequest struct {
	requestBase
	Snapshot string          `json:"snapshot,omitempty"` // continue from a stored snapshot
	Scenario json.RawMessage `json:"scenario,omitempty"` // events to apply before storing
	Budget   int             `json:"budget,omitempty"`   // per-event repair budget
	Repair   string          `json:"repair,omitempty"`   // refine (default) or portfolio
}

type snapshotResponse struct {
	ID string `json:"id,omitempty"`
	// Instance is the warm-instance key on fresh creations (absent when
	// continuing from a snapshot).
	Instance string `json:"instance,omitempty"`
	// Snapshot is the stored state's content-addressed handle.
	Snapshot string `json:"snapshot"`
	// Events is the stored state's absolute event cursor; Applied counts
	// the events this request replayed to reach it.
	Events        int     `json:"events"`
	Applied       int     `json:"applied"`
	Mapping       []int   `json:"mapping"`
	FinalMakespan float64 `json:"finalMakespan"`
	Evaluations   int     `json:"evaluations"`
	Timing        *Timing `json:"timing,omitempty"`

	wantTiming bool
}

func (r *snapshotResponse) timingRequested() bool { return r.wantTiming }
func (r *snapshotResponse) attachTiming(t *Timing) {
	c := *t
	r.Timing = &c
}

func (s *Service) handleSnapshot(ctx context.Context, body []byte, t *Timing, sink *eval.BatchTiming) (any, error) {
	var rq snapshotRequest
	if err := decodeStrict(body, &rq); err != nil {
		return nil, err
	}
	repair, err := parseRepair(rq.Repair)
	if err != nil {
		return nil, err
	}
	var sc gen.Scenario
	if len(rq.Scenario) != 0 {
		if sc, err = s.readScenario(rq.Scenario); err != nil {
			return nil, err
		}
	}

	var inst *online.Instance
	instanceKey := ""
	if rq.Snapshot != "" {
		if err := checkSnapshotBase(&rq.requestBase); err != nil {
			return nil, err
		}
		if rq.Budget != 0 {
			if _, err := s.checkBudget(rq.Budget, 0); err != nil {
				return nil, err
			}
		}
		inst, err = s.restoreSnapshot(rq.Snapshot, online.Options{
			Seed: rq.Seed, Workers: s.opt.Workers,
			RepairBudget: rq.Budget, Repair: repair,
		})
		if err != nil {
			return nil, err
		}
		t.ID = rq.ID
	} else {
		budget, err := s.checkBudget(rq.Budget, 3000)
		if err != nil {
			return nil, err
		}
		in, err := s.resolve(&rq.requestBase, t)
		if err != nil {
			return nil, err
		}
		if err := sc.ValidateFor(in.p.NumDevices(), in.p.Default); err != nil {
			return nil, badRequest("%v", err)
		}
		seed := rq.Seed
		if seed == 0 {
			seed = 1
		}
		// NewInstance deep-copies graph and platform, so the warm
		// instance's state is never mutated by the replay.
		inst, err = online.NewInstance(in.g, in.p, online.Options{
			Schedules: in.schedules, Seed: seed, Workers: s.opt.Workers,
			RepairBudget: budget, Repair: repair,
		})
		if err != nil {
			return nil, badRequest("%v", err)
		}
		instanceKey = in.key
	}

	applied := 0
	for _, e := range sc.Events {
		if err := inst.Step(e); err != nil {
			return nil, badRequest("%v", err)
		}
		applied++
	}
	handle := s.putSnapshot(inst.Snapshot().Encode())
	st := inst.Stats()
	return &snapshotResponse{
		ID: rq.ID, Instance: instanceKey, Snapshot: handle,
		Events: inst.Events(), Applied: applied, Mapping: inst.Mapping(),
		FinalMakespan: st.FinalMakespan, Evaluations: st.TotalEvaluations,
		wantTiming: rq.Timing,
	}, nil
}

// --- GET endpoints ---------------------------------------------------

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	st := s.Snapshot()
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		if err := WriteTimingsCSV(w, st.Timings); err != nil {
			// Headers are gone; nothing left to do but drop the conn.
			return
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
