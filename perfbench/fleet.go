package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"spmap/internal/fleet"
	"spmap/internal/gen"
	"spmap/internal/online"
	"spmap/internal/platform"
)

// The fleet probe replays generated mixed fail/degrade/arrive/depart
// streams through fleet.Run on one shard, checkpointing every stream to
// an in-memory store after every event, and times each event between
// the fleet's Interrupt callbacks (each stream's opening map precedes
// its first callback and is not an event sample). Each event may
// rebuild the kernel with a cold per-kernel cache and then runs a
// warm-start repair on a small budget. No workload's ops reach online
// or fleet, so every traced run ends with this probe.
const (
	fleetStreams   = 7
	fleetEvents    = 12
	fleetSchedules = 20
	fleetBudget    = 400
	// fleetProbeRuns is how many times the probe replays the stream
	// set: 7 × 11 = 77 timed events a replay.
	fleetProbeRuns = 3
)

// fleetStreamSet makes the fixed streams.
func fleetStreamSet() []fleet.Stream {
	rng := rand.New(rand.NewSource(instanceSeed))
	p := platform.Reference()
	streams := make([]fleet.Stream, fleetStreams)
	for i := range streams {
		n := 20 + rng.Intn(21)
		streams[i] = fleet.Stream{
			ID:       fmt.Sprintf("s%d", i),
			Graph:    gen.SeriesParallel(rng, n, gen.DefaultAttr()),
			Platform: p,
			Scenario: gen.NewScenario(rng, gen.ScenarioOptions{Events: fleetEvents, Devices: p.NumDevices()}),
			Options: online.Options{
				Schedules: fleetSchedules, Seed: rng.Int63(), Workers: 1,
				RepairBudget: fleetBudget,
			},
		}
	}
	return streams
}

// timedStore is a MemStore whose saves are timed and sized.
type timedStore struct {
	*fleet.MemStore
	tr      *tracer
	mu      sync.Mutex
	pending []int // save spans waiting for their event span
	saveUS  []float64
	kb      []float64
}

func (s *timedStore) Save(cp fleet.Checkpoint) error {
	t0 := time.Now()
	err := s.MemStore.Save(cp)
	t1 := time.Now()
	id := s.tr.add("fleet.save", t0, t1, -1, -1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saveUS = append(s.saveUS, float64(t1.Sub(t0))/1e3)
	s.kb = append(s.kb, float64(len(cp.Data))/1024)
	if id >= 0 {
		s.pending = append(s.pending, id)
	}
	return err
}

// adopt links the saves made since the last call to their event span.
func (s *timedStore) adopt(event int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.pending {
		s.tr.setParent(id, event)
	}
	s.pending = s.pending[:0]
}

// probeFleet replays the fixed streams fleetProbeRuns times, the first
// in ID order and the rest in orders drawn from the seed, and checks
// that every stream's trace equals a plain online.Replay of it in every
// replay. It then times, in isolation, each stream's opening map and
// the encoding of its final instance's snapshot.
func probeFleet(r *report, tr *tracer, seed int64) error {
	streams := fleetStreamSet()
	traces := make([]string, len(streams))
	stats := make([]online.Stats, len(streams))
	index := map[string]int{}
	for i, sm := range streams {
		_, s, err := online.Replay(sm.Graph, sm.Platform, sm.Scenario, sm.Options)
		if err != nil {
			return fmt.Errorf("stream %s: %w", sm.ID, err)
		}
		traces[i], stats[i], index[sm.ID] = s.Trace(), s, i
	}

	order := rand.New(rand.NewSource(seed))
	kindMS := map[gen.EventKind][]float64{}
	var checkpoints, saveUS, kb []float64
	var store *timedStore
	for run := 0; run < fleetProbeRuns; run++ {
		store = &timedStore{MemStore: fleet.NewMemStore(), tr: tr}
		perm := order.Perm(len(streams))
		if run == 0 {
			for i := range perm {
				perm[i] = i
			}
		}
		runStreams := make([]fleet.Stream, len(streams))
		for k, i := range perm {
			runStreams[k] = streams[i]
		}
		last := map[string]time.Time{}
		var eventSpans []int
		runStart := time.Now()
		results, err := fleet.Run(runStreams, fleet.Options{
			Shards: 1, CheckpointEvery: 1, Store: store,
			Interrupt: func(id string, n int) bool {
				now := time.Now()
				ev := -1 // the first event's saves belong to no sample
				if prev, ok := last[id]; ok {
					kind := stats[index[id]].Events[n-1].Kind
					kindMS[kind] = append(kindMS[kind], msOf(now.Sub(prev)))
					ev = tr.add("fleet.event", prev, now, -1, n-1)
					eventSpans = append(eventSpans, ev)
				}
				store.adopt(ev)
				last[id] = now
				return false
			},
		})
		if err != nil {
			return err
		}
		root := tr.add("fleet.run", runStart, time.Now(), -1, -1)
		for _, ev := range eventSpans {
			tr.setParent(ev, root)
		}
		for _, res := range results {
			switch i := index[res.StreamID]; {
			case res.Err != nil:
				r.problems = append(r.problems, fmt.Sprintf("fleet probe: stream %s: %v", res.StreamID, res.Err))
			case res.Interrupted:
				r.problems = append(r.problems, fmt.Sprintf("fleet probe: stream %s interrupted", res.StreamID))
			case res.Stats.Trace() != traces[i]:
				r.problems = append(r.problems, fmt.Sprintf("fleet probe: stream %s: trace differs from a plain replay", res.StreamID))
			}
			checkpoints = append(checkpoints, float64(res.Checkpoints))
		}
		saveUS = append(saveUS, store.saveUS...)
		kb = append(kb, store.kb...)
	}

	for kind, name := range map[gen.EventKind]string{
		gen.DeviceFail: "fail", gen.DeviceDegrade: "degrade", gen.TaskArrive: "arrive", gen.TaskDepart: "depart",
	} {
		r.set("online.event_ms."+name, mean(kindMS[kind]))
	}
	var repair, place, rebuilt, nEvents float64
	for _, s := range stats {
		for _, e := range s.Events {
			repair += float64(e.RepairEvaluations)
			place += float64(e.PlacementEvaluations)
			nEvents++
		}
		rebuilt += float64(s.KernelRebuilds)
	}
	r.set("online.repair_evals", repair/nEvents)
	r.set("online.placement_evals", place/nEvents)
	r.set("online.rebuild_share", rebuilt/nEvents)
	r.set("fleet.checkpoints", mean(checkpoints))
	r.set("fleet.checkpoint_kb", mean(kb))
	r.set("fleet.save_us", mean(saveUS))

	// Isolated timings: the opening map of every stream, and encoding
	// the snapshot of the final instance its completion checkpoint holds.
	var open, encode []float64
	for _, sm := range streams {
		open = append(open, msOf(timeRepeated(tr, "online.open", 5, func() {
			if _, err := online.NewInstance(sm.Graph, sm.Platform, sm.Options); err != nil {
				r.problems = append(r.problems, err.Error())
			}
		})))
		cp, ok, err := store.Load(sm.ID)
		if err != nil || !ok {
			return fmt.Errorf("stream %s: no completion checkpoint (%v)", sm.ID, err)
		}
		snap, err := online.DecodeSnapshot(cp.Data)
		if err != nil {
			return fmt.Errorf("stream %s: %w", sm.ID, err)
		}
		inst, err := online.Restore(snap, online.Options{Workers: 1})
		if err != nil {
			return fmt.Errorf("stream %s: restore: %w", sm.ID, err)
		}
		encode = append(encode, msOf(timeRepeated(tr, "fleet.encode", 1000, func() { inst.Snapshot().Encode() }))*1e3)
	}
	r.set("online.open_ms", mean(open))
	r.set("fleet.encode_us", mean(encode))
	return nil
}
