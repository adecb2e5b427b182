package experiments

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"spmap/internal/fleet"
	"spmap/internal/gen"
	"spmap/internal/online"
)

// The fleet experiment measures the sharded online-serving path: many
// concurrent scenario replay streams driven across worker shards with
// periodic snapshot checkpoints. Three sections:
//
//   - shard-sweep: the same stream set at 1, 2, 4 and 8 shards, no
//     store — pure scaling of the replay work. A differential gate
//     compares every stream's trace across shard counts (sharding must
//     never change a result, only wall-clock time).
//   - cadence-sweep: fixed shards, checkpointing every {1, 2, 4} events
//     versus not at all — the snapshot encode+store overhead as a
//     function of cadence, with checkpoint counts and bytes.
//   - resume-verify: a stream subset is interrupted mid-replay
//     (simulated crash after a checkpoint), resumed from the store, and
//     every resumed stream's trace is compared byte-for-byte against a
//     fresh uninterrupted replay. The experiment fails loudly on any
//     mismatch — crash-resume is verified, not assumed.
//
// With a persistent store directory (spmap-bench -store) the
// resume-verify section survives a killed process: checkpoints written
// before the kill are resumed on the next run and still must reproduce
// the uninterrupted traces.

// FleetRow is one fleet measurement.
type FleetRow struct {
	Section       string  `json:"section"` // shard-sweep | cadence-sweep | resume-verify
	Label         string  `json:"label"`
	Streams       int     `json:"streams"`
	Shards        int     `json:"shards"`
	Cadence       int     `json:"cadence"` // checkpoint every C events (0 = completion only / none)
	Events        int     `json:"events"`  // events applied across all streams
	TimeMS        float64 `json:"time_ms" fmt:"%.3f"`
	StreamsPerSec float64 `json:"streams_per_sec" fmt:"%.1f"`
	EventsPerSec  float64 `json:"events_per_sec" fmt:"%.1f"`
	Checkpoints   int     `json:"checkpoints"`
	CheckpointKB  float64 `json:"checkpoint_kb" fmt:"%.1f"` // total encoded checkpoint bytes
	// Speedup is relative to the section's 1-shard row (shard-sweep
	// only); OverheadPct is time overhead relative to the no-checkpoint
	// row (cadence-sweep only).
	Speedup     float64 `json:"speedup,omitempty" fmt:"%.3f"`
	OverheadPct float64 `json:"overhead_pct,omitempty" fmt:"%.2f"`
	// Resumed counts streams restored from a checkpoint; TraceMatches
	// counts resumed streams whose final trace equals the uninterrupted
	// reference (resume-verify only; must equal Streams).
	Resumed      int `json:"resumed,omitempty"`
	TraceMatches int `json:"trace_matches,omitempty"`
}

func (c Config) fleetStreams() int {
	if c.GraphsPerPoint > 0 {
		return c.GraphsPerPoint
	}
	if c.Paper {
		return 2000
	}
	return 1000
}

func (c Config) fleetEvents() int {
	if c.Paper {
		return 5
	}
	return 3
}

func (c Config) fleetBudget() int {
	if c.Paper {
		return 200
	}
	return 40
}

func (c Config) fleetSchedules() int {
	if c.Schedules > 0 {
		return c.Schedules
	}
	if c.Paper {
		return 16
	}
	return 4
}

// countingStore wraps a Store and counts checkpoint writes and bytes.
type countingStore struct {
	inner fleet.Store
	saves atomic.Int64
	bytes atomic.Int64
}

func (s *countingStore) Save(cp fleet.Checkpoint) error {
	s.saves.Add(1)
	s.bytes.Add(int64(len(cp.Data)))
	return s.inner.Save(cp)
}
func (s *countingStore) Load(id string) (fleet.Checkpoint, bool, error) { return s.inner.Load(id) }
func (s *countingStore) Delete(id string) error                         { return s.inner.Delete(id) }

// fleetStreamSet builds the deterministic stream population: small
// random SP instances, each with its own generated scenario.
func fleetStreamSet(cfg Config, count int) []fleet.Stream {
	const nTasks = 8
	p := cfg.platform()
	events := cfg.fleetEvents()
	streams := make([]fleet.Stream, count)
	for i := range streams {
		seed := cfg.Seed + int64(i)*7919
		rng := rand.New(rand.NewSource(seed))
		g := gen.SeriesParallel(rng, nTasks, gen.DefaultAttr())
		sc := gen.NewScenario(rng, gen.ScenarioOptions{
			Events: events, Devices: p.NumDevices(), DefaultDevice: p.Default,
		})
		streams[i] = fleet.Stream{
			ID: fmt.Sprintf("stream-%05d", i), Graph: g, Platform: p, Scenario: sc,
			Options: online.Options{
				Schedules: cfg.fleetSchedules(), Seed: seed, Workers: 1,
				RepairBudget: cfg.fleetBudget(),
			},
		}
	}
	return streams
}

// runFleet drives one configuration and aggregates a row.
func runFleet(section, label string, streams []fleet.Stream, opt fleet.Options) (FleetRow, []fleet.Result) {
	var cs *countingStore
	if opt.Store != nil {
		cs = &countingStore{inner: opt.Store}
		opt.Store = cs
	}
	t0 := time.Now()
	results, err := fleet.Run(streams, opt)
	el := time.Since(t0)
	if err != nil {
		panic(fmt.Sprintf("fleet experiment: %v", err))
	}
	row := FleetRow{
		Section: section, Label: label, Streams: len(streams),
		Shards: opt.Shards, Cadence: opt.CheckpointEvery,
		TimeMS: float64(el.Microseconds()) / 1000,
	}
	for _, r := range results {
		if r.Err != nil {
			panic(fmt.Sprintf("fleet experiment: stream %s: %v", r.StreamID, r.Err))
		}
		row.Events += r.Events
		if r.ResumedFrom > 0 {
			row.Resumed++
		}
	}
	row.StreamsPerSec = float64(len(streams)) / el.Seconds()
	row.EventsPerSec = float64(row.Events) / el.Seconds()
	if cs != nil {
		row.Checkpoints = int(cs.saves.Load())
		row.CheckpointKB = float64(cs.bytes.Load()) / 1024
	}
	return row, results
}

// FleetComparison runs the three fleet sections. storeDir, when
// non-empty, backs the resume-verify section with a persistent
// fleet.DirStore so a killed process resumes on the next run; empty
// selects an in-memory store.
func FleetComparison(cfg Config, storeDir string) ([]FleetRow, error) {
	streams := fleetStreamSet(cfg, cfg.fleetStreams())
	var rows []FleetRow

	// Shard sweep: identical work, growing shard counts, trace gate.
	var refTraces []string
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		row, results := runFleet("shard-sweep", fmt.Sprintf("shards=%d", shards),
			streams, fleet.Options{Shards: shards})
		if shards == 1 {
			base = row.TimeMS
			refTraces = make([]string, len(results))
			for i, r := range results {
				refTraces[i] = r.Stats.Trace()
			}
		} else {
			for i, r := range results {
				if r.Stats.Trace() != refTraces[i] {
					return nil, fmt.Errorf("fleet: stream %s trace diverged at %d shards", r.StreamID, shards)
				}
			}
		}
		row.Speedup = base / row.TimeMS
		rows = append(rows, row)
	}

	// Cadence sweep: checkpoint cost as a function of cadence.
	var noCkpt float64
	for _, every := range []int{0, 4, 2, 1} {
		opt := fleet.Options{Shards: 4}
		label := "no-store"
		if every > 0 {
			opt.Store = fleet.NewMemStore()
			opt.CheckpointEvery = every
			label = fmt.Sprintf("every=%d", every)
		}
		row, _ := runFleet("cadence-sweep", label, streams, opt)
		if every == 0 {
			noCkpt = row.TimeMS
		} else {
			row.OverheadPct = (row.TimeMS - noCkpt) / noCkpt * 100
		}
		rows = append(rows, row)
	}

	// Resume verify: interrupt a subset mid-replay, resume, compare
	// every trace against the uninterrupted reference from the shard
	// sweep. The subset keeps the double-replay verification affordable
	// at fleet scale.
	n := len(streams)
	if n > 64 {
		n = 64
	}
	subset := streams[:n]
	var store fleet.Store = fleet.NewMemStore()
	if storeDir != "" {
		ds, err := fleet.NewDirStore(storeDir)
		if err != nil {
			return nil, err
		}
		store = ds
	}
	half := cfg.fleetEvents() / 2
	if half < 1 {
		half = 1
	}
	kill, _ := runFleet("resume-verify", "interrupted", subset, fleet.Options{
		Shards: 4, Store: store, CheckpointEvery: 1,
		Interrupt: func(id string, events int) bool { return events >= half },
	})
	rows = append(rows, kill)
	resume, results := runFleet("resume-verify", "resumed", subset, fleet.Options{
		Shards: 4, Store: store, CheckpointEvery: 1,
	})
	for i, r := range results {
		if r.Stats.Trace() == refTraces[i] {
			resume.TraceMatches++
		}
	}
	rows = append(rows, resume)
	if resume.TraceMatches != len(subset) {
		return rows, fmt.Errorf("fleet: resume verification failed: %d/%d traces match the uninterrupted reference",
			resume.TraceMatches, len(subset))
	}
	return rows, nil
}

// FleetNotes returns the resume-verify summary line of rows (none when
// the resumed row is missing). CI greps this line, so keep its wording.
func FleetNotes(rows []FleetRow) []string {
	for _, r := range rows {
		if r.Section == "resume-verify" && r.Label == "resumed" {
			return []string{fmt.Sprintf("resume-verify: %d/%d resumed traces identical to the uninterrupted reference (%d streams restored from checkpoints)",
				r.TraceMatches, r.Streams, r.Resumed)}
		}
	}
	return nil
}
