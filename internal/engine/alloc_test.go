package engine

// Allocation-regression guards: the compiled synchronous executor and
// the ladder-queue asynchronous core promise (near-)zero steady-state
// allocation when reusing a scratch arena. These tests pin that with
// testing.AllocsPerRun so a regression — a buffer that stopped being
// reused, an event that started escaping, a δ row rebuilt per step —
// fails `make check` instead of silently eroding the perf work. The
// bounds are small integers, not zeros: a run legitimately allocates
// its result struct, the returned state vector, and (async, dynamic
// machines) the occasional lazily interned δ row when a fresh seed
// steers execution into an unvisited corner of the compiled state
// space.

import (
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

// allocProtocol is a small multi-letter round protocol that tabulates
// to progFlatMulti (the compiled sync fast path).
func allocProtocol() *nfsm.RoundProtocol {
	return miniRound()
}

func TestAllocsSyncCompiled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := graph.GnpConnected(256, 4.0/256, xrand.New(17))
	prog := Compile(allocProtocol(), g)
	scr := NewScratch()
	seed := uint64(0)
	run := func() {
		seed++
		if _, err := prog.RunSyncReusing(SyncConfig{Seed: seed, Workers: 1}, scr); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena
	allocs := testing.AllocsPerRun(20, run)
	// Steady state: the result struct, the returned States vector, and
	// slack for the testing harness itself.
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Fatalf("compiled sync run allocates %.1f objects/op, want ≤ %d", allocs, maxAllocs)
	}
}

func TestAllocsAsyncLadder(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := graph.GnpConnected(24, 0.2, xrand.New(18))
	compiled, err := synchro.CompileRound(allocProtocol())
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(compiled, g)
	scr := NewScratch()
	seed := uint64(0)
	run := func() {
		seed++
		if _, err := prog.RunAsyncReusing(AsyncConfig{Seed: seed, Adversary: UniformRandom{Seed: seed}}, scr); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both the scratch arena and the shared machine's interned
	// state space across several seeds.
	for i := 0; i < 8; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	// Steady state: result + States + a handful of lazily interned δ
	// rows for execution corners fresh seeds keep discovering.
	const maxAllocs = 64
	if allocs > maxAllocs {
		t.Fatalf("async ladder run allocates %.1f objects/op, want ≤ %d", allocs, maxAllocs)
	}
}

// TestAllocsAsyncVoted pins the voted tier's steady state: the decoder
// allocates its per-edge state (rings, stall counters, backoff
// windows) once per run up front, and after that the vote, the strike
// bookkeeping and the K-copy bursts run allocation-free per receipt —
// a regression here (a ring rebuilt per receipt, a burst buffer
// escaping) scales with message volume, not run count, which is
// exactly what this guard converts into a fixed per-run bound.
func TestAllocsAsyncVoted(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := graph.GnpConnected(24, 0.2, xrand.New(18))
	compiled, err := synchro.CompileRoundVoted(allocProtocol())
	if err != nil {
		t.Fatal(err)
	}
	prog := Compile(compiled, g)
	scr := NewScratch()
	vcfg := &VotedConfig{RePulseSource: compiled.RePulseSource}
	seed := uint64(0)
	run := func() {
		seed++
		cfg := AsyncConfig{Seed: seed, Adversary: UniformRandom{Seed: seed}, Voted: vcfg}
		if _, err := prog.RunAsyncReusing(cfg, scr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	// The ladder bound plus the decoder's per-run slice set and the
	// eviction record.
	const maxAllocs = 80
	if allocs > maxAllocs {
		t.Fatalf("async voted run allocates %.1f objects/op, want ≤ %d", allocs, maxAllocs)
	}
}

// TestAllocsAsyncScenario pins the scenario hooks of the async
// executor: a scenario run takes its per-slot and per-node arrays
// (write times, FIFO horizons, step bookkeeping, crash epochs, settling
// counters) from the scratch arena like a static run, so what remains
// per run is fixed setup — the cloned graph the run mutates (one slice
// per node), the liveness table, the Byzantine index, the perturbation
// log — never a cost that grows with the events processed. One case
// crashes and restarts a node (liveness only, α synchronizer); the
// other runs a silent Byzantine node against the voted tier, the pair
// the hostile benchmark cells route through this path.
func TestAllocsAsyncScenario(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := graph.GnpConnected(24, 0.2, xrand.New(18))
	alpha, err := synchro.CompileRound(allocProtocol())
	if err != nil {
		t.Fatal(err)
	}
	voted, err := synchro.CompileRoundVoted(allocProtocol())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		m     nfsm.Machine
		sc    *scenario.Scenario
		voted *VotedConfig
	}{
		{"crash-restart", alpha, &scenario.Scenario{
			Reset: scenario.ResetAll,
			Batches: []scenario.Batch{
				{At: 3, Muts: []graph.Mutation{{Kind: graph.MutCrashNode, U: 5}}},
				{At: 8, Muts: []graph.Mutation{{Kind: graph.MutRestartNode, U: 5}}},
			},
		}, nil},
		{"byz-silent", voted, &scenario.Scenario{
			Reset:     scenario.ResetNone,
			Byzantine: []channel.ByzNode{channel.Silent(0)},
		}, &VotedConfig{RePulseSource: voted.RePulseSource}},
	}
	for _, c := range cases {
		prog := Compile(c.m, g)
		scr := NewScratch()
		seed := uint64(0)
		run := func() {
			seed++
			cfg := AsyncConfig{Seed: seed, Adversary: UniformRandom{Seed: seed}, Scenario: c.sc, Voted: c.voted}
			if _, err := prog.RunAsyncReusing(cfg, scr); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for i := 0; i < 8; i++ {
			run()
		}
		allocs := testing.AllocsPerRun(20, run)
		// The ladder bound plus the graph clone (24 adjacency slices and
		// its header), the liveness table and the perturbation log.
		const maxAllocs = 96
		if allocs > maxAllocs {
			t.Fatalf("%s: async scenario run allocates %.1f objects/op, want ≤ %d", c.name, allocs, maxAllocs)
		}
	}
}

// TestAllocsSyncScenario pins the scenario and channel hooks of the
// sync executor: a scenario or channel run takes its port counts,
// emission buffers and channel buffers from the scratch arena like a
// static run, so what remains per run is fixed setup — the cloned graph
// the run mutates (one slice per node), the liveness table, the
// Byzantine index, the perturbation log — never a cost that grows with
// the rounds executed. The three cases are a crash→restart under
// ResetAll (liveness only), a silent Byzantine node, and a channel-only
// drop model.
func TestAllocsSyncScenario(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := graph.GnpConnected(24, 0.2, xrand.New(18))
	prog := Compile(allocProtocol(), g)
	cases := []struct {
		name  string
		sc    *scenario.Scenario
		model channel.Model
	}{
		{"crash-restart", &scenario.Scenario{
			Reset: scenario.ResetAll,
			Batches: []scenario.Batch{
				{At: 3, Muts: []graph.Mutation{{Kind: graph.MutCrashNode, U: 5}}},
				{At: 8, Muts: []graph.Mutation{{Kind: graph.MutRestartNode, U: 5}}},
			},
		}, nil},
		{"byz-silent", &scenario.Scenario{
			Reset:     scenario.ResetNone,
			Byzantine: []channel.ByzNode{channel.Silent(0)},
		}, nil},
		{"channel-drop", nil, channel.Drop{Rate: 0.2, Seed: 3}},
	}
	for _, c := range cases {
		scr := NewScratch()
		seed := uint64(0)
		run := func() {
			seed++
			cfg := SyncConfig{Seed: seed, Scenario: c.sc, Channel: c.model}
			if _, err := prog.RunSyncReusing(cfg, scr); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for i := 0; i < 8; i++ {
			run()
		}
		allocs := testing.AllocsPerRun(20, run)
		// The graph clone (24 adjacency slices and its header), the
		// liveness table, the reset sets, the perturbation log, result
		// and States, and slack for the testing harness itself.
		const maxAllocs = 64
		if allocs > maxAllocs {
			t.Fatalf("%s: sync scenario run allocates %.1f objects/op, want ≤ %d", c.name, allocs, maxAllocs)
		}
	}
}

// TestAllocsLadderOps pins the queue itself: pushes and pops on a
// warmed ladder must not allocate at all, and neither may the pooled
// delivery FIFOs.
func TestAllocsLadderOps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var l ladder
	var d delivPool
	// Pre-draw the offsets so every cycle replays the same sequence and
	// the closure body itself allocates nothing.
	src := xrand.New(19)
	offs := make([]float64, 512)
	for i := range offs {
		offs[i] = float64(src.Uint64()%1024) / 64
	}
	cycle := func() {
		l.reset()
		d.reset(16)
		now := 0.0
		for i := 0; i < 512; i++ {
			l.push(qevent{time: now + offs[i], seq: uint64(i)})
			if i%3 == 0 {
				if e, ok := l.pop(); ok {
					now = e.time
				}
			}
			k := int32(i % 16)
			if d.enqueue(k, now+1, uint64(i), 1) {
				_ = k
			} else if i%5 == 0 {
				d.delivered(k)
			}
		}
		for {
			if _, ok := l.pop(); !ok {
				break
			}
		}
	}
	cycle() // grow all backing storage to the high-water mark
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 0 {
		t.Fatalf("warmed ladder/pool cycle allocates %.1f objects/op, want 0", allocs)
	}
}
