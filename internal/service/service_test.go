package service

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"spmap/internal/gen"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
	"spmap/internal/wf"
)

// testGraphJSON generates a deterministic task graph and returns its
// JSON encoding.
func testGraphJSON(t *testing.T, n int, seed int64) json.RawMessage {
	t.Helper()
	g := gen.SeriesParallel(rand.New(rand.NewSource(seed)), n, gen.DefaultAttr())
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestServer(t *testing.T, opt Options) (*Service, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends body to path and returns the status and response body.
func post(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	var buf []byte
	switch b := body.(type) {
	case []byte:
		buf = b
	case string:
		buf = []byte(b)
	default:
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || strings.TrimSpace(string(b)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}
}

func TestMapAllAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 24, 7)
	var g graph.DAG
	if err := json.Unmarshal(gj, &g); err != nil {
		t.Fatal(err)
	}
	for algo := range mapAlgos {
		status, body := post(t, ts, "/v1/map", map[string]any{
			"id": algo, "graph": gj, "algo": algo, "schedules": 20, "budget": 500,
		})
		if status != 200 {
			t.Fatalf("%s: status %d: %s", algo, status, body)
		}
		var r mapResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if r.ID != algo || r.Algo != algo {
			t.Fatalf("%s: echo id=%q algo=%q", algo, r.ID, r.Algo)
		}
		if len(r.Mapping) != g.NumTasks() {
			t.Fatalf("%s: mapping length %d, want %d", algo, len(r.Mapping), g.NumTasks())
		}
		for v, d := range r.Mapping {
			if d < 0 || d >= 3 {
				t.Fatalf("%s: task %d on device %d", algo, v, d)
			}
		}
		if !(r.Makespan > 0) {
			t.Fatalf("%s: makespan %v", algo, r.Makespan)
		}
	}
}

func TestMapRefineFlag(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 20, 3)
	base := map[string]any{"graph": gj, "algo": "heft", "schedules": 20, "budget": 400}
	_, plain := post(t, ts, "/v1/map", base)
	base["refine"] = true
	status, refined := post(t, ts, "/v1/map", base)
	if status != 200 {
		t.Fatalf("refine: %d %s", status, refined)
	}
	var p, r mapResponse
	json.Unmarshal(plain, &p)
	json.Unmarshal(refined, &r)
	if r.Makespan > p.Makespan {
		t.Fatalf("refined makespan %v worse than plain %v", r.Makespan, p.Makespan)
	}
	if r.Evaluations <= p.Evaluations {
		t.Fatalf("refine did not add evaluations: %d <= %d", r.Evaluations, p.Evaluations)
	}
}

func TestRefineEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 20, 5)
	var g graph.DAG
	json.Unmarshal(gj, &g)
	baseline := make([]int, g.NumTasks()) // all on device 0
	for _, algo := range []string{"anneal", "hillclimb"} {
		status, body := post(t, ts, "/v1/refine", map[string]any{
			"graph": gj, "mapping": baseline, "algo": algo, "schedules": 20, "budget": 400,
		})
		if status != 200 {
			t.Fatalf("%s: status %d: %s", algo, status, body)
		}
		var r mapResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Algo != "refine-"+algo {
			t.Fatalf("algo echo %q", r.Algo)
		}
		if len(r.Mapping) != g.NumTasks() || !(r.Makespan > 0) {
			t.Fatalf("%s: mapping %v makespan %v", algo, r.Mapping, r.Makespan)
		}
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 16, 11)
	var g graph.DAG
	json.Unmarshal(gj, &g)
	n := g.NumTasks()
	mappings := make([][]int, 8)
	for i := range mappings {
		m := make([]int, n)
		for v := range m {
			m[v] = (v + i) % 3
		}
		mappings[i] = m
	}
	status, body := post(t, ts, "/v1/evaluate", map[string]any{
		"graph": gj, "mappings": mappings, "schedules": 20,
	})
	if status != 200 {
		t.Fatalf("evaluate: %d %s", status, body)
	}
	var r evaluateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Makespans) != len(mappings) || r.Energies != nil {
		t.Fatalf("got %d makespans, energies=%v", len(r.Makespans), r.Energies)
	}
	for i, ms := range r.Makespans {
		if ms == nil || !(*ms > 0) {
			t.Fatalf("makespan[%d] = %v", i, ms)
		}
	}

	// Energy variant returns both objectives.
	status, body = post(t, ts, "/v1/evaluate", map[string]any{
		"graph": gj, "mappings": mappings, "schedules": 20, "energy": true, "timing": true,
	})
	if status != 200 {
		t.Fatalf("evaluate energy: %d %s", status, body)
	}
	var re evaluateResponse
	json.Unmarshal(body, &re)
	if len(re.Energies) != len(mappings) {
		t.Fatalf("energies %d, want %d", len(re.Energies), len(mappings))
	}
	if re.Timing == nil || re.Timing.Endpoint != "evaluate" {
		t.Fatalf("timing opt-in missing on evaluate: %+v", re.Timing)
	}
	for i := range re.Makespans {
		if *re.Makespans[i] != *r.Makespans[i] {
			t.Fatalf("MO makespan[%d] = %v, scalar path %v", i, *re.Makespans[i], *r.Makespans[i])
		}
		if !(re.Energies[i] > 0) {
			t.Fatalf("energy[%d] = %v", i, re.Energies[i])
		}
	}

	// A finite cutoff keeps at-or-below results exact and nulls the
	// rest — over-cutoff magnitudes are path-dependent certificates and
	// are never served.
	cut := *r.Makespans[0]
	status, body = post(t, ts, "/v1/evaluate", map[string]any{
		"graph": gj, "mappings": mappings, "schedules": 20, "cutoff": cut,
	})
	if status != 200 {
		t.Fatalf("evaluate cutoff: %d %s", status, body)
	}
	var rc evaluateResponse
	json.Unmarshal(body, &rc)
	for i, ms := range rc.Makespans {
		exact := *r.Makespans[i]
		if exact <= cut && (ms == nil || *ms != exact) {
			t.Fatalf("cutoff changed exact result %d: %v != %v", i, ms, exact)
		}
		if exact > cut && ms != nil {
			t.Fatalf("over-cutoff result %d not nulled: %v (cutoff %v)", i, *ms, cut)
		}
	}
}

// TestEvaluatePatchForm exercises the base+moves request shape against
// whole-mapping ground truth: a move's makespan must equal evaluating
// the patched mapping directly.
func TestEvaluatePatchForm(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 16, 23)
	var g graph.DAG
	json.Unmarshal(gj, &g)
	n := g.NumTasks()
	base := make([]int, n)
	for v := range base {
		base[v] = v % 3
	}
	moves := []map[string]any{
		{"tasks": []int{0}, "device": 2},
		{"tasks": []int{1, 2}, "device": 0},
		{"tasks": []int{n - 1}, "device": 1},
	}
	status, body := post(t, ts, "/v1/evaluate", map[string]any{
		"graph": gj, "base": base, "moves": moves, "schedules": 20,
	})
	if status != 200 {
		t.Fatalf("patch form: %d %s", status, body)
	}
	var r evaluateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Makespans) != len(moves) {
		t.Fatalf("%d makespans, want %d", len(r.Makespans), len(moves))
	}

	// Ground truth: the same candidates as whole mappings.
	whole := make([][]int, len(moves))
	for i, mv := range moves {
		m := append([]int(nil), base...)
		for _, v := range mv["tasks"].([]int) {
			m[v] = mv["device"].(int)
		}
		whole[i] = m
	}
	status, body = post(t, ts, "/v1/evaluate", map[string]any{
		"graph": gj, "mappings": whole, "schedules": 20,
	})
	if status != 200 {
		t.Fatalf("ground truth: %d %s", status, body)
	}
	var w evaluateResponse
	json.Unmarshal(body, &w)
	for i := range moves {
		if *r.Makespans[i] != *w.Makespans[i] {
			t.Fatalf("move %d: patch form %v != whole mapping %v", i, *r.Makespans[i], *w.Makespans[i])
		}
	}
}

// TestEvaluatePatchFormEnergyCutoff pins the patch-form energy branch
// under a finite cutoff against an independently compiled evaluator:
// every served energy must be bit-identical to Evaluator.Energy of the
// materialized candidate, every makespan at or below the cutoff to
// ReferenceMakespan, and every candidate above the cutoff must be null.
func TestEvaluatePatchFormEnergyCutoff(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 30, 41)
	var g graph.DAG
	if err := json.Unmarshal(gj, &g); err != nil {
		t.Fatal(err)
	}
	p := platform.Reference()
	ev := model.NewEvaluator(&g, p).WithSchedules(20, 3)
	n, nd := g.NumTasks(), p.NumDevices()
	base := mapping.Baseline(&g, p)
	var moves []map[string]any
	var cands []mapping.Mapping
	addMove := func(tasks []int, dev int) {
		moves = append(moves, map[string]any{"tasks": tasks, "device": dev})
		m := base.Clone()
		for _, v := range tasks {
			m[v] = dev
		}
		cands = append(cands, m)
	}
	for v := 0; v < n; v++ {
		for d := 0; d < nd; d++ {
			addMove([]int{v}, d)
		}
		if v+1 < n {
			addMove([]int{v, v + 1}, v%nd)
		}
	}
	cutoff := ev.ReferenceMakespan(base)
	status, body := post(t, ts, "/v1/evaluate", map[string]any{
		"graph": gj, "base": base, "moves": moves, "schedules": 20, "seed": 3,
		"energy": true, "cutoff": cutoff,
	})
	if status != 200 {
		t.Fatalf("patch-form energy: %d %s", status, body)
	}
	var r evaluateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Makespans) != len(cands) || len(r.Energies) != len(cands) {
		t.Fatalf("%d makespans, %d energies, want %d each", len(r.Makespans), len(r.Energies), len(cands))
	}
	below, above := 0, 0
	for i, m := range cands {
		if got, want := r.Energies[i], ev.Energy(m); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("move %d: energy %v != reference %v", i, got, want)
		}
		exact := ev.ReferenceMakespan(m)
		if exact <= cutoff {
			below++
			if r.Makespans[i] == nil || math.Float64bits(*r.Makespans[i]) != math.Float64bits(exact) {
				t.Fatalf("move %d: makespan %v != reference %v (cutoff %v)", i, r.Makespans[i], exact, cutoff)
			}
			continue
		}
		above++
		if r.Makespans[i] != nil {
			t.Fatalf("move %d: over-cutoff makespan %v served (reference %v, cutoff %v)", i, *r.Makespans[i], exact, cutoff)
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("cutoff %v does not split the candidates: %d at or below, %d above", cutoff, below, above)
	}
}

// TestInstanceHandle covers the graph-free steady-state shape: a
// request referencing the warm instance by the key a previous response
// returned must answer exactly like its graph-carrying equivalent.
func TestInstanceHandle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 14, 31)
	mappings := [][]int{make([]int, 14), make([]int, 14)}
	for v := range mappings[1] {
		mappings[1][v] = (v + 1) % 3
	}

	status, body := post(t, ts, "/v1/evaluate", map[string]any{
		"graph": gj, "mappings": mappings, "schedules": 25,
	})
	if status != 200 {
		t.Fatalf("create: %d %s", status, body)
	}
	var r evaluateResponse
	json.Unmarshal(body, &r)
	if r.Instance == "" {
		t.Fatal("response carries no instance key")
	}

	status, viaHandle := post(t, ts, "/v1/evaluate", map[string]any{
		"instance": r.Instance, "mappings": mappings,
	})
	if status != 200 {
		t.Fatalf("handle request: %d %s", status, viaHandle)
	}
	if string(viaHandle) != string(body) {
		t.Fatalf("handle response diverged:\n%s\n%s", viaHandle, body)
	}

	// Handles also serve /v1/map and /v1/refine.
	status, body = post(t, ts, "/v1/map", map[string]any{
		"instance": r.Instance, "algo": "heft",
	})
	if status != 200 {
		t.Fatalf("map via handle: %d %s", status, body)
	}
	var mr mapResponse
	json.Unmarshal(body, &mr)
	if mr.Instance != r.Instance || len(mr.Mapping) != 14 {
		t.Fatalf("map via handle: %+v", mr)
	}

	for _, tc := range []struct {
		name   string
		body   map[string]any
		status int
	}{
		{"unknown handle", map[string]any{"instance": "gdeadbeef-p0-s1-r1", "mappings": mappings}, 404},
		{"handle plus graph", map[string]any{"instance": r.Instance, "graph": gj, "mappings": mappings}, 400},
		{"handle plus schedules", map[string]any{"instance": r.Instance, "schedules": 25, "mappings": mappings}, 400},
	} {
		if status, body := post(t, ts, "/v1/evaluate", tc.body); status != tc.status {
			t.Fatalf("%s: status %d (want %d): %s", tc.name, status, tc.status, body)
		}
	}
}

// TestFastPathMatchesSlowPath pins the raw-bytes shortcut: repeat
// requests skip decoding but must hit the same instance and produce
// identical responses, and a re-formatted (different bytes, same
// content) graph still lands on the same warm instance via the slow
// path's canonical key.
func TestFastPathMatchesSlowPath(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 12, 29)
	req := map[string]any{"graph": gj, "algo": "spfirstfit", "schedules": 15}
	_, first := post(t, ts, "/v1/map", req)
	_, second := post(t, ts, "/v1/map", req) // fast path
	if string(first) != string(second) {
		t.Fatalf("fast path diverged:\n%s\n%s", first, second)
	}

	// Same graph, different JSON formatting: slow path, same instance.
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, gj, "", "  "); err != nil {
		t.Fatal(err)
	}
	req["graph"] = json.RawMessage(pretty.Bytes())
	_, third := post(t, ts, "/v1/map", req)
	if string(first) != string(third) {
		t.Fatalf("re-formatted graph diverged:\n%s\n%s", first, third)
	}
	if st := s.Snapshot(); len(st.Instances) != 1 || st.Instances[0].Requests != 3 {
		t.Fatalf("instances after fast/slow mix: %+v", st.Instances)
	}
}

func TestReplayEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 16, 13)
	sc := gen.NewScenario(rand.New(rand.NewSource(2)), gen.ScenarioOptions{Events: 4})
	scj, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, ts, "/v1/replay", map[string]any{
		"graph": gj, "scenario": json.RawMessage(scj), "schedules": 10, "budget": 300,
		"timing": true,
	})
	if status != 200 {
		t.Fatalf("replay: %d %s", status, body)
	}
	var r replayResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Events != 4 || !(r.FinalMakespan > 0) || r.Evaluations == 0 {
		t.Fatalf("replay: %+v", r)
	}
}

// TestValidationErrors exercises the request-rejection surface: every
// hostile or malformed input must produce a 4xx with a useful message,
// never a 500 or a silently defaulted computation.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 1 << 20})
	gj := testGraphJSON(t, 8, 1)
	var g graph.DAG
	json.Unmarshal(gj, &g)
	n := g.NumTasks()
	ok := make([]int, n)

	cases := []struct {
		name, path string
		body       any
		status     int
		substr     string
	}{
		{"missing graph", "/v1/map", map[string]any{"algo": "heft"}, 400, "missing graph"},
		{"corrupt graph", "/v1/map", map[string]any{"graph": json.RawMessage(`{"tasks":[{"complexity":-1}]}`)}, 400, "complexity"},
		{"empty graph", "/v1/map", map[string]any{"graph": json.RawMessage(`{"tasks":[],"edges":[]}`)}, 400, "no tasks"},
		{"unknown algo", "/v1/map", map[string]any{"graph": gj, "algo": "magic"}, 400, "unknown algorithm"},
		{"unknown field", "/v1/map", map[string]any{"graph": gj, "alog": "heft"}, 400, "unknown field"},
		{"trailing data", "/v1/map", `{"graph":{"tasks":[{"complexity":1}],"edges":[]}} {"x":1}`, 400, "trailing data"},
		{"not json", "/v1/map", `hello`, 400, "request"},
		{"schedules cap", "/v1/map", map[string]any{"graph": gj, "schedules": 99999}, 400, "schedules"},
		{"negative schedules", "/v1/map", map[string]any{"graph": gj, "schedules": -1}, 400, "schedules"},
		{"budget cap", "/v1/map", map[string]any{"graph": gj, "algo": "anneal", "budget": 1 << 60}, 400, "budget"},
		{"negative budget", "/v1/map", map[string]any{"graph": gj, "algo": "anneal", "budget": -5}, 400, "budget"},
		{"bad gamma", "/v1/map", map[string]any{"graph": gj, "algo": "gamma", "gamma": 0.5}, 400, "gamma"},
		{"negative gap target", "/v1/map", map[string]any{"graph": gj, "algo": "portfolio", "gap_target": -0.1}, 400, "gap_target"},
		{"gap target one", "/v1/map", map[string]any{"graph": gj, "algo": "portfolio", "gap_target": 1}, 400, "gap_target"},
		{"gap target wrong algo", "/v1/map", map[string]any{"graph": gj, "algo": "heft", "gap_target": 0.1}, 400, "portfolio"},
		{"corrupt platform", "/v1/map", map[string]any{"graph": gj, "platform": json.RawMessage(`{"devices":[{"name":"x","peakOps":-1,"lanes":1,"bandwidth":1}]}`)}, 400, "platform"},
		{"refine missing mapping", "/v1/refine", map[string]any{"graph": gj}, 400, "length 0"},
		{"refine short mapping", "/v1/refine", map[string]any{"graph": gj, "mapping": []int{0}}, 400, "length 1"},
		{"refine bad device", "/v1/refine", map[string]any{"graph": gj, "mapping": append([]int{99}, ok[1:]...)}, 400, "device 99"},
		{"refine bad algo", "/v1/refine", map[string]any{"graph": gj, "mapping": ok, "algo": "genetic"}, 400, "unknown refine algorithm"},
		{"evaluate no mappings", "/v1/evaluate", map[string]any{"graph": gj}, 400, "no mappings"},
		{"evaluate negative device", "/v1/evaluate", map[string]any{"graph": gj, "mappings": [][]int{append([]int{-1}, ok[1:]...)}}, 400, "mappings[0]"},
		{"evaluate negative cutoff", "/v1/evaluate", map[string]any{"graph": gj, "mappings": [][]int{ok}, "cutoff": -1}, 400, "cutoff"},
		{"replay missing scenario", "/v1/replay", map[string]any{"graph": gj}, 400, "missing scenario"},
		{"replay corrupt scenario", "/v1/replay", map[string]any{"graph": gj, "scenario": json.RawMessage(`{"events":[{"kind":"explode","time":1}]}`)}, 400, ""},
		{"replay bad repair", "/v1/replay", map[string]any{"graph": gj, "scenario": json.RawMessage(`{"events":[]}`), "repair": "magic"}, 400, "unknown repair mode"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := post(t, ts, c.path, c.body)
			if status != c.status {
				t.Fatalf("status %d, want %d: %s", status, c.status, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body not JSON: %s", body)
			}
			if !strings.Contains(er.Error, c.substr) {
				t.Fatalf("error %q does not mention %q", er.Error, c.substr)
			}
		})
	}
}

func TestEvaluateMappingsCap(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxMappings: 4})
	gj := testGraphJSON(t, 8, 1)
	var g graph.DAG
	json.Unmarshal(gj, &g)
	ms := make([][]int, 5)
	for i := range ms {
		ms[i] = make([]int, g.NumTasks())
	}
	status, body := post(t, ts, "/v1/evaluate", map[string]any{"graph": gj, "mappings": ms})
	if status != 400 || !bytes.Contains(body, []byte("cap")) {
		t.Fatalf("over-cap mappings: %d %s", status, body)
	}
}

func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 512})
	big := `{"graph":{"tasks":[` + strings.Repeat(`{"complexity":1},`, 200) + `{"complexity":1}],"edges":[]}}`
	status, body := post(t, ts, "/v1/map", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", status, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/map")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/map: %d", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats: %d", r2.StatusCode)
	}
}

func TestCloseRejectsAndIsIdempotent(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 8, 1)
	if status, _ := post(t, ts, "/v1/map", map[string]any{"graph": gj, "algo": "heft", "schedules": 5}); status != 200 {
		t.Fatalf("pre-close map: %d", status)
	}
	s.Close()
	s.Close() // idempotent
	status, body := post(t, ts, "/v1/map", map[string]any{"graph": gj, "algo": "heft", "schedules": 5})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-close map: %d %s", status, body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 16, 17)
	for i := 0; i < 3; i++ {
		if status, b := post(t, ts, "/v1/map", map[string]any{
			"id": fmt.Sprintf("r%d", i), "graph": gj, "algo": "spfirstfit", "schedules": 20,
		}); status != 200 {
			t.Fatalf("map %d: %d %s", i, status, b)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 3 || !st.Coalesce || len(st.Instances) != 1 {
		t.Fatalf("stats: %+v", st)
	}
	in := st.Instances[0]
	if in.Requests != 3 || in.Tasks == 0 || in.Devices != 3 {
		t.Fatalf("instance stats: %+v", in)
	}
	if in.Flushes == 0 || in.FlushedOps == 0 {
		t.Fatalf("no coalescing telemetry: %+v", in)
	}
	if in.CacheHits+in.CacheMisses == 0 {
		t.Fatalf("no cache telemetry: %+v", in)
	}
	if len(st.Timings) != 3 {
		t.Fatalf("%d timing records, want 3", len(st.Timings))
	}
	for i, tr := range st.Timings {
		if tr.Endpoint != "map" || tr.Status != 200 || tr.Ops == 0 || tr.TotalUS <= 0 {
			t.Fatalf("timing %d: %+v", i, tr)
		}
		if tr.ID != fmt.Sprintf("r%d", i) {
			t.Fatalf("timing order: record %d has id %q", i, tr.ID)
		}
	}

	// CSV view parses and matches the record count.
	rc, err := http.Get(ts.URL + "/v1/stats?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Body.Close()
	if ct := rc.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("csv content type %q", ct)
	}
	rows, err := csv.NewReader(rc.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0][0] != "id" || rows[1][0] != "r0" {
		t.Fatalf("csv rows: %v", rows)
	}
}

// TestMapGapTarget drives the certified-gap early stop through the
// service: a chain-dominated workflow graph certifies tightly, so a
// portfolio request with gap_target 0.05 must stop early, report the
// certificate in the response, and surface the gap in /v1/stats.
func TestMapGapTarget(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	g := wf.Generate(wf.Blast, 1, rand.New(rand.NewSource(7)))
	gj, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, ts, "/v1/map", map[string]any{
		"id": "gap", "graph": json.RawMessage(gj), "algo": "portfolio",
		"schedules": 20, "seed": 7, "gap_target": 0.05,
	})
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var r mapResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !(r.LowerBound > 0 && r.LowerBound <= r.Makespan) {
		t.Fatalf("lower bound %v not in (0, makespan %v]", r.LowerBound, r.Makespan)
	}
	if !r.GapStop || !(r.Gap > 0 && r.Gap <= 0.05) {
		t.Fatalf("expected certified early stop at gap <= 0.05, got gapStop=%v gap=%v", r.GapStop, r.Gap)
	}
	if r.BudgetSaved < 50100/5 {
		t.Fatalf("budget saved %d < 20%% of the default budget", r.BudgetSaved)
	}

	// A non-portfolio request certifies nothing and omits the fields.
	_, plain := post(t, ts, "/v1/map", map[string]any{
		"graph": json.RawMessage(gj), "algo": "heft", "schedules": 20,
	})
	if bytes.Contains(plain, []byte("lowerBound")) || bytes.Contains(plain, []byte("gapStop")) {
		t.Fatalf("heft response carries certificate fields: %s", plain)
	}

	// /v1/stats carries the per-request gap in both views.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range st.Timings {
		if tr.ID == "gap" {
			found = true
			if !tr.GapStop || tr.Gap != r.Gap {
				t.Fatalf("timing record gap=%v gapStop=%v, want gap=%v gapStop=true", tr.Gap, tr.GapStop, r.Gap)
			}
		} else if tr.Gap != 0 || tr.GapStop {
			t.Fatalf("uncertified request carries gap telemetry: %+v", tr)
		}
	}
	if !found {
		t.Fatal("no timing record for the gap request")
	}
	rc, err := http.Get(ts.URL + "/v1/stats?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Body.Close()
	rows, err := csv.NewReader(rc.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	gi, gsi := -1, -1
	for i, col := range rows[0] {
		switch col {
		case "gap":
			gi = i
		case "gap_stop":
			gsi = i
		}
	}
	if gi < 0 || gsi < 0 {
		t.Fatalf("csv header missing gap columns: %v", rows[0])
	}
	csvHasStop := false
	for _, row := range rows[1:] {
		if row[gsi] == "true" {
			csvHasStop = true
		}
	}
	if !csvHasStop {
		t.Fatalf("no csv row records the gap stop: %v", rows)
	}
}

func TestTimingOptIn(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gj := testGraphJSON(t, 12, 19)
	req := map[string]any{"graph": gj, "algo": "spfirstfit", "schedules": 10}
	_, plain := post(t, ts, "/v1/map", req)
	if bytes.Contains(plain, []byte(`"timing"`)) {
		t.Fatalf("timing present without opt-in: %s", plain)
	}
	req["timing"] = true
	status, timed := post(t, ts, "/v1/map", req)
	if status != 200 {
		t.Fatalf("timed map: %d %s", status, timed)
	}
	var r mapResponse
	if err := json.Unmarshal(timed, &r); err != nil {
		t.Fatal(err)
	}
	if r.Timing == nil || r.Timing.Endpoint != "map" || !r.Timing.Coalesced || r.Timing.Ops == 0 {
		t.Fatalf("timing payload: %+v", r.Timing)
	}
	// The timed and untimed responses agree on everything but timing.
	var p mapResponse
	json.Unmarshal(plain, &p)
	if p.Makespan != r.Makespan || fmt.Sprint(p.Mapping) != fmt.Sprint(r.Mapping) {
		t.Fatalf("timing opt-in changed the result: %v vs %v", p, r)
	}
}

func TestInstanceEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInstances: 2})
	for i := int64(0); i < 4; i++ {
		gj := testGraphJSON(t, 8, 100+i)
		if status, b := post(t, ts, "/v1/map", map[string]any{"graph": gj, "algo": "heft", "schedules": 5}); status != 200 {
			t.Fatalf("map %d: %d %s", i, status, b)
		}
	}
	st := s.Snapshot()
	if len(st.Instances) != 2 {
		t.Fatalf("%d instances retained, want 2", len(st.Instances))
	}
}

func TestTimingRingWraps(t *testing.T) {
	r := newTimingRing(3)
	for i := 0; i < 5; i++ {
		r.add(Timing{ID: fmt.Sprintf("t%d", i)})
	}
	got := r.snapshot()
	if len(got) != 3 || got[0].ID != "t2" || got[2].ID != "t4" {
		t.Fatalf("ring snapshot: %+v", got)
	}
}

// requestSet builds a mixed map/refine/evaluate request stream over a
// few graphs. Bodies carry timing=false so responses are covered by the
// byte-determinism contract.
func requestSet(t *testing.T) []struct{ path, body string } {
	t.Helper()
	var reqs []struct{ path, body string }
	add := func(path string, body map[string]any) {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, struct{ path, body string }{path, string(b)})
	}
	for gi := int64(0); gi < 2; gi++ {
		gj := testGraphJSON(t, 14, 40+gi)
		var g graph.DAG
		json.Unmarshal(gj, &g)
		n := g.NumTasks()
		for _, algo := range []string{"heft", "spfirstfit", "singlenode", "hillclimb"} {
			add("/v1/map", map[string]any{"graph": gj, "algo": algo, "schedules": 15, "budget": 300})
		}
		base := make([]int, n)
		add("/v1/refine", map[string]any{"graph": gj, "mapping": base, "algo": "hillclimb", "schedules": 15, "budget": 300})
		mappings := make([][]int, 6)
		for i := range mappings {
			m := make([]int, n)
			for v := range m {
				m[v] = (v*7 + i) % 3
			}
			mappings[i] = m
		}
		add("/v1/evaluate", map[string]any{"graph": gj, "mappings": mappings, "schedules": 15})
	}
	return reqs
}

// TestConcurrentByteDeterminism is the PR's core race test: many
// concurrent requests through one warm coalescing service must each
// produce a response byte-identical to the same request served alone by
// an uncoalesced single-worker service. Run under -race this also
// exercises the batcher, cache and instance table for data races.
func TestConcurrentByteDeterminism(t *testing.T) {
	reqs := requestSet(t)

	// Serial reference: no coalescing, one worker, fresh service.
	_, ref := newTestServer(t, Options{NoCoalesce: true, Workers: 1})
	want := make([]string, len(reqs))
	for i, rq := range reqs {
		status, body := post(t, ref, rq.path, rq.body)
		if status != 200 {
			t.Fatalf("reference %s: %d %s", rq.path, status, body)
		}
		want[i] = string(body)
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			svc, ts := newTestServer(t, Options{Workers: workers})
			const rounds = 3
			var wg sync.WaitGroup
			errs := make(chan string, len(reqs)*rounds)
			for round := 0; round < rounds; round++ {
				for i, rq := range reqs {
					wg.Add(1)
					go func(i int, rq struct{ path, body string }) {
						defer wg.Done()
						status, body := post(t, ts, rq.path, rq.body)
						if status != 200 {
							errs <- fmt.Sprintf("req %d: status %d: %s", i, status, body)
							return
						}
						if string(body) != want[i] {
							errs <- fmt.Sprintf("req %d diverged under concurrency:\n got %s\nwant %s", i, body, want[i])
						}
					}(i, rq)
				}
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
			st := svc.Snapshot()
			var flushed int64
			for _, in := range st.Instances {
				flushed += in.FlushedOps
			}
			if flushed == 0 {
				t.Fatalf("concurrent run never used the coalescing path: %+v", st.Instances)
			}
		})
	}
}

// TestCoalescedMatchesDirect pins the acceptance criterion directly:
// identical request streams against batching-on and batching-off
// services yield byte-identical response bodies.
func TestCoalescedMatchesDirect(t *testing.T) {
	reqs := requestSet(t)
	_, on := newTestServer(t, Options{})
	_, off := newTestServer(t, Options{NoCoalesce: true})
	for i, rq := range reqs {
		s1, b1 := post(t, on, rq.path, rq.body)
		s2, b2 := post(t, off, rq.path, rq.body)
		if s1 != 200 || s2 != 200 {
			t.Fatalf("req %d: status %d/%d", i, s1, s2)
		}
		if string(b1) != string(b2) {
			t.Fatalf("req %d: coalesced and direct diverge:\n on %s\noff %s", i, b1, b2)
		}
	}
}

func TestWriteTimingsCSVRoundTrip(t *testing.T) {
	ts := []Timing{
		{ID: "a", Endpoint: "map", Instance: "k", Ops: 7, QueueUS: 1, BatchUS: 2,
			EvalUS: 3, RespondUS: 4, TotalUS: 10, Flushes: 1, Coalesced: true, Status: 200},
		{Endpoint: "evaluate", Status: 400},
	}
	var buf bytes.Buffer
	if err := WriteTimingsCSV(&buf, ts); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || len(rows[0]) != len(timingHeader) {
		t.Fatalf("rows: %v", rows)
	}
	if rows[1][3] != "7" || rows[1][10] != "true" || rows[2][11] != "400" {
		t.Fatalf("row values: %v", rows)
	}
}
