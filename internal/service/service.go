// Package service implements the spmapd mapping service: a long-running
// HTTP daemon holding warm per-(platform, graph, schedule-set) state —
// compiled evaluation kernel, bounded memoization cache, coalescing
// batcher — and serving map/refine/evaluate/replay requests against it.
//
// The core of the design is cross-request batch coalescing: every
// request evaluates through an engine routed into the instance's shared
// eval.Batcher, so candidate evaluations from different concurrent
// requests accumulate into single Engine.EvaluateBatch flushes
// (batch-size or max-wait triggered) instead of each request paying its
// own worker-pool fan-out over a handful of ops. Combined with the
// shared exact-result cache, a warm instance amortizes both simulation
// and scheduling overhead across the whole request stream the way
// eval.Cache amortizes repeated mappings within one run.
//
// Determinism contract: for a fixed request (graph, platform,
// schedules, seed, algo, budget) the response body is byte-identical
// regardless of how many other requests are in flight, whether
// coalescing is on or off, and for any worker count. Every evaluation
// obeys the engine's one cutoff contract — Infeasible; else the exact
// makespan if it is at or below the cutoff; else
// math.Nextafter(cutoff, +Inf) — so coalescing and caching change which
// flush carries an op, never a value. Per-request timing, which does
// vary, is opt-in ("timing": true) and excluded from the contract.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spmap/internal/eval"
	"spmap/internal/graph"
	"spmap/internal/mapping"
	"spmap/internal/model"
	"spmap/internal/platform"
)

// Options configure a Service; zero values select the defaults.
type Options struct {
	// Platform is the default platform for requests that do not carry
	// one inline (nil selects the paper's reference platform).
	Platform *platform.Platform
	// MaxBatch and MaxWait are the coalescing batcher's flush knobs
	// (defaults 128 ops / 1ms). Larger batches amortize more but add
	// queueing latency at low load; MaxWait bounds that latency.
	MaxBatch int
	MaxWait  time.Duration
	// Workers bounds each instance engine's worker pool (0 selects
	// GOMAXPROCS). Responses are identical for any value.
	Workers int
	// CacheEntries bounds each instance's evaluation cache (default
	// 1<<18 entries, FIFO eviction; < 0 disables caching).
	CacheEntries int
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxInstances bounds the warm-instance table (default 32, FIFO
	// eviction). Each instance holds a compiled kernel and its cache.
	MaxInstances int
	// MaxSchedules and MaxBudget cap the per-request cost knobs
	// (defaults 1024 and 10,000,000): a single hostile request must not
	// be able to pin the service. MaxMappings caps the candidate count
	// of one /evaluate request (default 1<<16).
	MaxSchedules int
	MaxBudget    int
	MaxMappings  int
	// MaxScenarioEvents caps the event count of one /v1/replay or
	// /v1/snapshot scenario (default 10,000): replay cost is linear in
	// events times repair budget, and a single hostile stream must not
	// be able to pin the service.
	MaxScenarioEvents int
	// MaxSnapshots bounds the stored-snapshot table (default 64, FIFO
	// eviction). Snapshots are encoded replay states, typically a few
	// KiB each.
	MaxSnapshots int
	// NoCoalesce disables the cross-request batcher: every request
	// evaluates directly. Responses are byte-identical either way; the
	// flag exists for the batching-on/off experiment and as an
	// operational escape hatch.
	NoCoalesce bool
	// TimingRing is the number of recent per-request Timing records
	// retained for /v1/stats (default 4096).
	TimingRing int
}

func (o *Options) withDefaults() Options {
	d := *o
	if d.Platform == nil {
		d.Platform = platform.Reference()
	}
	if d.MaxBatch <= 0 {
		d.MaxBatch = 128
	}
	if d.MaxWait <= 0 {
		d.MaxWait = time.Millisecond
	}
	if d.CacheEntries == 0 {
		d.CacheEntries = 1 << 18
	}
	if d.MaxBodyBytes <= 0 {
		d.MaxBodyBytes = 8 << 20
	}
	if d.MaxInstances <= 0 {
		d.MaxInstances = 32
	}
	if d.MaxSchedules <= 0 {
		d.MaxSchedules = 1024
	}
	if d.MaxBudget <= 0 {
		d.MaxBudget = 10_000_000
	}
	if d.MaxMappings <= 0 {
		d.MaxMappings = 1 << 16
	}
	if d.MaxScenarioEvents <= 0 {
		d.MaxScenarioEvents = 10_000
	}
	if d.MaxSnapshots <= 0 {
		d.MaxSnapshots = 64
	}
	return d
}

// Service is the long-running mapping service. Create with New, serve
// its Handler, Close on shutdown (drains in-flight batches).
type Service struct {
	opt     Options
	handler http.Handler
	timings *timingRing

	requests atomic.Int64

	mu        sync.Mutex
	closed    bool
	instances map[string]*instance
	order     []string // instance insertion order for FIFO eviction

	// rawKeys is the hot-path shortcut past JSON decoding: it maps the
	// sha256 of a request's raw (graph, platform) bytes plus the
	// schedules/seed pair to an already-compiled instance, so repeat
	// requests skip decode, validation and canonical re-marshaling
	// entirely. Entries are only added after the slow path has fully
	// validated those exact bytes, so the shortcut can never admit
	// input the slow path would reject. Bounded FIFO like the instance
	// table; a stale entry (instance since evicted) just falls back to
	// the slow path.
	rawKeys  map[rawKey]*instance
	rawOrder []rawKey

	// snapshots holds encoded online.Snapshot states by content-hash
	// handle — the /v1/snapshot resume tokens. Entries are immutable
	// once stored (the handle is the hash of the bytes) and bounded
	// FIFO like the instance table.
	snapshots map[string][]byte
	snapOrder []string
}

// rawKey fingerprints the undecoded request tuple.
type rawKey struct {
	g, p      [sha256.Size]byte
	schedules int
	seed      int64
}

// instance is the warm state for one (platform, graph, schedules, seed)
// tuple: the template evaluator (compiled kernel + execution tables),
// the cache-configured engine, and the coalescing batcher feeding it.
type instance struct {
	key   string
	g     *graph.DAG
	p     *platform.Platform
	tmpl  *model.Evaluator
	eng   *eval.Engine  // cached + worker-configured, direct path
	coal  *eval.Engine  // eng routed through bat (== eng when NoCoalesce)
	cache *eval.Cache   // nil when caching disabled or platform too wide
	bat   *eval.Batcher // nil when NoCoalesce

	schedules int
	seed      int64
	requests  atomic.Int64

	// bases interns client-supplied base mappings for the patch-form
	// /v1/evaluate: the engine's shared-prefix amortization keys on
	// slice identity, so concurrent requests searching around the same
	// incumbent must resolve to the same []int for their ops to share
	// one prefix recording per coalesced flush. Bounded; on overflow
	// the table resets (only the sharing is lost, never correctness).
	baseMu sync.Mutex
	bases  map[string]mapping.Mapping
}

// maxInternedBases bounds an instance's base-interning table.
const maxInternedBases = 256

// internBase returns the canonical shared slice for a base mapping.
func (in *instance) internBase(m []int) mapping.Mapping {
	var sb strings.Builder
	for _, d := range m {
		sb.WriteString(strconv.Itoa(d))
		sb.WriteByte(',')
	}
	key := sb.String()
	in.baseMu.Lock()
	defer in.baseMu.Unlock()
	if in.bases == nil || len(in.bases) >= maxInternedBases {
		in.bases = make(map[string]mapping.Mapping)
	}
	if got, ok := in.bases[key]; ok {
		return got
	}
	cp := append(mapping.Mapping(nil), m...)
	in.bases[key] = cp
	return cp
}

// New builds a Service. The returned service is ready to serve; its
// instances are compiled lazily on first use per (platform, graph,
// schedules, seed) tuple.
func New(opt Options) *Service {
	s := &Service{
		opt:       opt.withDefaults(),
		timings:   newTimingRing(opt.TimingRing),
		instances: make(map[string]*instance),
		rawKeys:   make(map[rawKey]*instance),
		snapshots: make(map[string][]byte),
	}
	s.handler = s.routes()
	return s
}

// Handler returns the HTTP handler serving the spmapd API.
func (s *Service) Handler() http.Handler { return s.handler }

// Close drains and stops the service: every instance batcher is closed
// (pending coalesced ops are flushed and answered first) and subsequent
// requests are rejected with 503. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	insts := make([]*instance, 0, len(s.instances))
	for _, in := range s.instances {
		insts = append(insts, in)
	}
	s.mu.Unlock()
	for _, in := range insts {
		if in.bat != nil {
			in.bat.Close()
		}
	}
}

// snapshotHandle derives the content-addressed handle for an encoded
// snapshot: identical states share one table entry, and a handle can
// never reference bytes other than the ones it was minted for.
func snapshotHandle(data []byte) string {
	h := sha256.Sum256(data)
	return "snap-" + hex.EncodeToString(h[:12])
}

// putSnapshot stores an encoded snapshot and returns its handle,
// evicting the oldest entries beyond MaxSnapshots.
func (s *Service) putSnapshot(data []byte) string {
	key := snapshotHandle(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.snapshots[key]; ok {
		return key
	}
	for len(s.snapshots) >= s.opt.MaxSnapshots {
		oldest := s.snapOrder[0]
		s.snapOrder = s.snapOrder[1:]
		delete(s.snapshots, oldest)
	}
	s.snapshots[key] = data
	s.snapOrder = append(s.snapOrder, key)
	return key
}

// lookupSnapshot resolves a snapshot handle (nil when unknown or
// evicted). The returned bytes are immutable by convention — every
// consumer decodes, never mutates.
func (s *Service) lookupSnapshot(handle string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshots[handle]
}

// instanceKey fingerprints the warm-state tuple. The graph and platform
// hashes are over their canonical JSON re-marshaling, so formatting
// differences between clients do not fragment the instance table.
func instanceKey(gj, pj []byte, schedules int, seed int64) string {
	gh := sha256.Sum256(gj)
	ph := sha256.Sum256(pj)
	return fmt.Sprintf("g%s-p%s-s%d-r%d",
		hex.EncodeToString(gh[:8]), hex.EncodeToString(ph[:8]), schedules, seed)
}

// lookupInstance resolves an instance-handle request: the client sent
// the key a previous response returned instead of the graph bytes.
func (s *Service) lookupInstance(key string) *instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instances[key]
}

// fastInstance looks up a warm instance by the request's raw bytes,
// skipping JSON decoding entirely. Only tuples the slow path has fully
// validated are ever recorded, and entries whose instance has been
// evicted from the table are dropped on lookup.
func (s *Service) fastInstance(gRaw, pRaw []byte, schedules int, seed int64) (*instance, bool) {
	k := rawKey{g: sha256.Sum256(gRaw), p: sha256.Sum256(pRaw), schedules: schedules, seed: seed}
	s.mu.Lock()
	defer s.mu.Unlock()
	in, ok := s.rawKeys[k]
	if !ok {
		return nil, false
	}
	if s.instances[in.key] != in {
		delete(s.rawKeys, k) // instance evicted; re-validate via slow path
		return nil, false
	}
	return in, true
}

// recordRaw remembers a validated raw tuple for fastInstance.
func (s *Service) recordRaw(gRaw, pRaw []byte, schedules int, seed int64, in *instance) {
	k := rawKey{g: sha256.Sum256(gRaw), p: sha256.Sum256(pRaw), schedules: schedules, seed: seed}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.rawKeys[k]; ok {
		return
	}
	for len(s.rawKeys) >= 4*s.opt.MaxInstances {
		oldest := s.rawOrder[0]
		s.rawOrder = s.rawOrder[1:]
		delete(s.rawKeys, oldest)
	}
	s.rawKeys[k] = in
	s.rawOrder = append(s.rawOrder, k)
}

// getInstance returns the warm instance for the tuple, compiling it on
// first use and evicting the oldest instance beyond MaxInstances. The
// graph and platform are the already-validated decoded values.
func (s *Service) getInstance(g *graph.DAG, p *platform.Platform, schedules int, seed int64) (*instance, error) {
	gj, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	pj, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	key := instanceKey(gj, pj, schedules, seed)

	s.mu.Lock()
	if in, ok := s.instances[key]; ok {
		s.mu.Unlock()
		return in, nil
	}
	s.mu.Unlock()

	// Compile outside the lock: kernel compilation is the expensive
	// part and must not serialize unrelated requests. Two concurrent
	// first requests may both compile; the loser's instance is dropped.
	in := s.buildInstance(key, g, p, schedules, seed)

	s.mu.Lock()
	defer s.mu.Unlock()
	if winner, ok := s.instances[key]; ok {
		if in.bat != nil {
			in.bat.Close()
		}
		return winner, nil
	}
	for len(s.instances) >= s.opt.MaxInstances {
		oldest := s.order[0]
		s.order = s.order[1:]
		if old, ok := s.instances[oldest]; ok {
			delete(s.instances, oldest)
			if old.bat != nil {
				// Close drains in-flight coalesced ops and flips the
				// engine to the direct path, so requests still holding
				// the evicted instance finish correctly.
				go old.bat.Close()
			}
		}
	}
	s.instances[key] = in
	s.order = append(s.order, key)
	return in, nil
}

// buildInstance compiles the warm state for one tuple.
func (s *Service) buildInstance(key string, g *graph.DAG, p *platform.Platform, schedules int, seed int64) *instance {
	tmpl := model.NewEvaluator(g, p).WithSchedules(schedules, seed)
	eng := tmpl.Engine().WithWorkers(s.opt.Workers)
	var cache *eval.Cache
	if s.opt.CacheEntries > 0 && eng.Cacheable() {
		cache = eval.NewCacheBounded(s.opt.CacheEntries)
		eng = eng.WithCache(cache)
	}
	in := &instance{
		key: key, g: g, p: p, tmpl: tmpl, eng: eng, coal: eng,
		cache: cache, schedules: schedules, seed: seed,
	}
	if !s.opt.NoCoalesce {
		in.bat = eval.NewBatcher(eng, eval.BatcherOptions{
			MaxBatch: s.opt.MaxBatch, MaxWait: s.opt.MaxWait,
		})
		in.coal = eng.WithBatcher(in.bat)
	}
	tmpl.WithEngine(in.coal)
	return in
}

// evaluator returns a private evaluator for one request, routed through
// the instance's coalescing engine with the request's timing sink
// attached.
func (in *instance) evaluator(sink *eval.BatchTiming) *model.Evaluator {
	return in.tmpl.Clone().WithEngine(in.coal.WithBatchTiming(sink))
}

// InstanceStats is one warm instance's telemetry for /v1/stats.
type InstanceStats struct {
	Key       string `json:"key"`
	Tasks     int    `json:"tasks"`
	Devices   int    `json:"devices"`
	Schedules int    `json:"schedules"`
	Seed      int64  `json:"seed"`
	Requests  int64  `json:"requests"`
	// Cache telemetry (zero when caching is off for the instance).
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEntries   int64 `json:"cache_entries"`
	CacheEvictions int64 `json:"cache_evictions"`
	// Batcher telemetry (zero when coalescing is off).
	Flushes      int64 `json:"flushes"`
	FlushedOps   int64 `json:"flushed_ops"`
	CrossFlushes int64 `json:"cross_flushes"`
	MaxFlush     int64 `json:"max_flush"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	Requests  int64           `json:"requests"`
	Coalesce  bool            `json:"coalesce"`
	Snapshots int             `json:"snapshots"`
	Instances []InstanceStats `json:"instances"`
	// Timings are the most recent per-request records (bounded ring).
	Timings []Timing `json:"timings"`
}

// Snapshot returns the service telemetry.
func (s *Service) Snapshot() Stats {
	s.mu.Lock()
	keys := append([]string(nil), s.order...)
	insts := make([]*instance, 0, len(keys))
	for _, k := range keys {
		insts = append(insts, s.instances[k])
	}
	snapCount := len(s.snapshots)
	s.mu.Unlock()
	st := Stats{
		Requests:  s.requests.Load(),
		Coalesce:  !s.opt.NoCoalesce,
		Snapshots: snapCount,
		Timings:   s.timings.snapshot(),
	}
	for _, in := range insts {
		is := InstanceStats{
			Key: in.key, Tasks: in.g.NumTasks(), Devices: in.p.NumDevices(),
			Schedules: in.schedules, Seed: in.seed, Requests: in.requests.Load(),
		}
		if in.cache != nil {
			cs := in.cache.Stats()
			is.CacheHits, is.CacheMisses = cs.Hits, cs.Misses
			is.CacheEntries, is.CacheEvictions = cs.Entries, cs.Evictions
		}
		if in.bat != nil {
			bs := in.bat.Stats()
			is.Flushes, is.FlushedOps = bs.Flushes, bs.Items
			is.CrossFlushes, is.MaxFlush = bs.CrossFlushes, bs.MaxFlush
		}
		st.Instances = append(st.Instances, is)
	}
	return st
}
