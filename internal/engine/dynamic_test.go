package engine_test

// The dynamic-network differential suite: the scenario hooks of the
// production executors (Program.RunSyncReusing and
// Program.RunAsyncReusing) must be bit-identical to the independent
// dynamic reference engines on every (machine, graph, scenario, seed)
// cell — rounds/times, counts, states, perturbation log, recovery
// metrics and the final graph. The fuzz targets in fuzz_test.go extend
// the same comparison to arbitrary machines and scenarios.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
	"stoneage/internal/xrand"
)

// dynDefs spans every scenario kind and reset policy the generators
// produce (reset must be concrete at engine level).
func dynDefs() []scenario.Def {
	return []scenario.Def{
		{Kind: "none"},
		{Kind: "crash", Frac: 0.3, At: scenario.Round(3), Every: 6, Reset: "none"},
		{Kind: "crash", Frac: 0.5, At: scenario.Round(2), Every: 4, Reset: "all"},
		{Kind: "churn", Rate: 2, Count: 3, At: scenario.Round(2), Every: 5, Reset: "touched"},
		{Kind: "churn", Rate: 3, Count: 2, At: scenario.Round(1), Every: 7, Reset: "neighborhood"},
		{Kind: "churn", Rate: 1, Count: 4, At: scenario.Round(4), Every: 4, Reset: "all"},
		{Kind: "wake", Frac: 0.25, Count: 3, At: scenario.Round(2), Every: 3, Reset: "none"},
		{Kind: "wake", Frac: 0.5, Count: 2, At: scenario.Round(1), Every: 6, Reset: "touched"},
	}
}

func dynGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(9),
		graph.Cycle(12),
		graph.Star(8),
		graph.Gnp(24, 0.15, xrand.New(5)),
		graph.GnpConnected(32, 4.0/32, xrand.New(9)),
	}
}

func sameStates(a, b []nfsm.State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameGraph(a, b *graph.Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// TestDifferentialDynamicSync compares the scenario hooks of the
// compiled executor with the dynamic reference engine across machines, graphs, scenarios
// and seeds.
func TestDifferentialDynamicSync(t *testing.T) {
	machines := []nfsm.Machine{mis.Protocol(), flood()}
	for _, m := range machines {
		for gi, g0 := range dynGraphs() {
			for di, def := range dynDefs() {
				for seed := uint64(1); seed <= 3; seed++ {
					sc, err := def.Generate(g0, seed*31+uint64(di))
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%T/g%d/%s-%s/seed%d", m, gi, def.Name(), def.Reset, seed)
					cfg := engine.SyncConfig{Seed: seed, MaxRounds: 512, Scenario: sc}
					ref, refErr := engine.RunSyncRef(m, g0, cfg)
					got, gotErr := engine.RunSync(m, g0, cfg)
					if refErr != nil || gotErr != nil {
						if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
							t.Fatalf("%s: error mismatch:\nreference: %v\ncompiled:  %v", name, refErr, gotErr)
						}
						continue
					}
					if got.Rounds != ref.Rounds || got.Transmissions != ref.Transmissions ||
						got.RecoveryRounds != ref.RecoveryRounds {
						t.Fatalf("%s: (rounds, tx, recovery) = (%d, %d, %d), reference (%d, %d, %d)",
							name, got.Rounds, got.Transmissions, got.RecoveryRounds,
							ref.Rounds, ref.Transmissions, ref.RecoveryRounds)
					}
					if len(got.PerturbedAt) != len(ref.PerturbedAt) {
						t.Fatalf("%s: %d perturbations, reference %d", name, len(got.PerturbedAt), len(ref.PerturbedAt))
					}
					for i := range got.PerturbedAt {
						if got.PerturbedAt[i] != ref.PerturbedAt[i] {
							t.Fatalf("%s: perturbation %d at round %d, reference %d",
								name, i, got.PerturbedAt[i], ref.PerturbedAt[i])
						}
					}
					if !sameStates(got.States, ref.States) {
						t.Fatalf("%s: final states diverge", name)
					}
					if !sameGraph(got.FinalGraph, ref.FinalGraph) {
						t.Fatalf("%s: final graphs diverge", name)
					}
					if !sc.Empty() {
						if err := got.FinalGraph.Validate(); err != nil {
							t.Fatalf("%s: final graph invalid: %v", name, err)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialDynamicAsync does the same for the asynchronous
// executors, across the adversary suite.
func TestDifferentialDynamicAsync(t *testing.T) {
	machines := []nfsm.Machine{mis.Protocol(), flood()}
	advNames := []string{"sync", "uniform", "skew", "drift"}
	for _, m := range machines {
		for gi, g0 := range dynGraphs()[:3] {
			for di, def := range dynDefs() {
				seed := uint64(7 + di)
				sc, err := def.Generate(g0, seed)
				if err != nil {
					t.Fatal(err)
				}
				advName := advNames[(gi+di)%len(advNames)]
				name := fmt.Sprintf("%T/g%d/%s-%s/%s", m, gi, def.Name(), def.Reset, advName)
				mkCfg := func() engine.AsyncConfig {
					return engine.AsyncConfig{
						Seed:      seed,
						Adversary: engine.NamedAdversaries(seed + 3)[advName],
						MaxSteps:  1 << 16,
						Scenario:  sc,
					}
				}
				ref, refErr := engine.RunAsyncRef(m, g0, mkCfg())
				got, gotErr := engine.RunAsync(m, g0, mkCfg())
				if refErr != nil || gotErr != nil {
					if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
						t.Fatalf("%s: error mismatch:\nreference: %v\ncompiled:  %v", name, refErr, gotErr)
					}
					continue
				}
				if got.Time != ref.Time || got.TimeUnits != ref.TimeUnits ||
					got.RecoveryTime != ref.RecoveryTime || got.RecoveryTimeUnits != ref.RecoveryTimeUnits {
					t.Fatalf("%s: (time, units, rec, recUnits) = (%v, %v, %v, %v), reference (%v, %v, %v, %v)",
						name, got.Time, got.TimeUnits, got.RecoveryTime, got.RecoveryTimeUnits,
						ref.Time, ref.TimeUnits, ref.RecoveryTime, ref.RecoveryTimeUnits)
				}
				if got.Steps != ref.Steps || got.Transmissions != ref.Transmissions || got.Lost != ref.Lost {
					t.Fatalf("%s: (steps, tx, lost) = (%d, %d, %d), reference (%d, %d, %d)",
						name, got.Steps, got.Transmissions, got.Lost, ref.Steps, ref.Transmissions, ref.Lost)
				}
				if len(got.PerturbedAt) != len(ref.PerturbedAt) {
					t.Fatalf("%s: %d perturbations, reference %d", name, len(got.PerturbedAt), len(ref.PerturbedAt))
				}
				for i := range got.PerturbedAt {
					if got.PerturbedAt[i] != ref.PerturbedAt[i] {
						t.Fatalf("%s: perturbation %d at %v, reference %v",
							name, i, got.PerturbedAt[i], ref.PerturbedAt[i])
					}
				}
				if !sameStates(got.States, ref.States) {
					t.Fatalf("%s: final states diverge", name)
				}
				if !sameGraph(got.FinalGraph, ref.FinalGraph) {
					t.Fatalf("%s: final graphs diverge", name)
				}
			}
		}
	}
}

// TestDynamicStaticParity pins the dispatch: a nil scenario and an
// empty scenario take the static branch of each executor and agree
// with a plain static run bit for bit, with no dynamic extras
// reported. The sync arm runs sequentially and on three workers, so an
// empty scenario must keep the sharded path too. The async arm runs
// under a TieFree adversary, so the static branch of the one async
// executor parks nodes and pools deliveries — an empty scenario must
// keep both fast paths and report exactly what a static run does.
func TestDynamicStaticParity(t *testing.T) {
	m := mis.Protocol()
	g := graph.GnpConnected(48, 4.0/48, xrand.New(2))
	base, err := engine.RunSync(m, g, engine.SyncConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	adv := engine.UniformRandom{Seed: 4}
	abase, err := engine.RunAsync(m, g, engine.AsyncConfig{Seed: 9, Adversary: adv})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*scenario.Scenario{nil, {}, {Name: "noop"}} {
		for _, workers := range []int{1, 3} {
			got, err := engine.RunSync(m, g, engine.SyncConfig{Seed: 9, Scenario: sc, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.PerturbedAt != nil || got.FinalGraph != nil || got.RecoveryRounds != 0 {
				t.Fatalf("scenario %v, %d workers: static run reports dynamic extras", sc, workers)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("scenario %v, %d workers perturbed a static run:\n got %+v\nwant %+v", sc, workers, got, base)
			}
		}

		agot, err := engine.RunAsync(m, g, engine.AsyncConfig{Seed: 9, Adversary: adv, Scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		if agot.PerturbedAt != nil || agot.FinalGraph != nil || agot.RecoveryTime != 0 || agot.RecoveryTimeUnits != 0 {
			t.Fatalf("scenario %v: static async run reports dynamic extras", sc)
		}
		if !reflect.DeepEqual(agot, abase) {
			t.Fatalf("scenario %v perturbed a static async run:\n got %+v\nwant %+v", sc, agot, abase)
		}
	}
}

// TestScenarioRejection pins the failure modes both engines must share:
// unresolved auto reset policy and invalid mutation schedules.
func TestScenarioRejection(t *testing.T) {
	m := mis.Protocol()
	g := graph.Path(6)
	bad := []*scenario.Scenario{
		{Reset: scenario.ResetAuto, Batches: []scenario.Batch{{At: 1, Muts: []graph.Mutation{{Kind: graph.MutCrashNode, U: 0}}}}},
		{Reset: scenario.ResetNone, Batches: []scenario.Batch{{At: 1, Muts: []graph.Mutation{{Kind: graph.MutRemoveEdge, U: 0, V: 5}}}}},
		{Reset: scenario.ResetNone, Asleep: []int{99}},
	}
	for i, sc := range bad {
		_, fastErr := engine.RunSync(m, g, engine.SyncConfig{Seed: 1, Scenario: sc})
		_, refErr := engine.RunSyncRef(m, g, engine.SyncConfig{Seed: 1, Scenario: sc})
		if fastErr == nil || refErr == nil {
			t.Fatalf("bad scenario %d accepted (fast=%v ref=%v)", i, fastErr, refErr)
		}
		if fastErr.Error() != refErr.Error() {
			t.Fatalf("bad scenario %d: engines disagree:\nfast: %v\nref:  %v", i, fastErr, refErr)
		}
		_, aFastErr := engine.RunAsync(m, g, engine.AsyncConfig{Seed: 1, Scenario: sc})
		_, aRefErr := engine.RunAsyncRef(m, g, engine.AsyncConfig{Seed: 1, Scenario: sc})
		if aFastErr == nil || aRefErr == nil || aFastErr.Error() != aRefErr.Error() {
			t.Fatalf("bad scenario %d (async): fast=%v ref=%v", i, aFastErr, aRefErr)
		}
	}
}

// TestMISChurnRecovery is the end-to-end acceptance check: MIS under
// Poisson edge churn with the global-reset discipline recovers to a
// valid maximal independent set after every perturbation. The test
// reconstructs the graph timeline from the scenario and asserts, for
// each perturbation, that the next all-output configuration is a valid
// MIS of the graph as it stood at that point.
func TestMISChurnRecovery(t *testing.T) {
	m := mis.Protocol()
	g0 := graph.GnpConnected(40, 4.0/40, xrand.New(21))
	def := scenario.Def{Kind: "churn", Rate: 3, Count: 4, At: scenario.Round(6), Every: 40, Reset: "all"}
	sc, err := def.Generate(g0, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Batches) == 0 {
		t.Fatal("churn generated no batches")
	}

	// Record the full state timeline.
	var timeline [][]nfsm.State
	res, err := engine.RunSync(m, g0, engine.SyncConfig{
		Seed: 5, MaxRounds: 4096, Scenario: sc,
		Observer: func(round int, states []nfsm.State) {
			timeline = append(timeline, append([]nfsm.State(nil), states...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerturbedAt) != len(sc.Batches) {
		t.Fatalf("%d perturbations recorded, want %d", len(res.PerturbedAt), len(sc.Batches))
	}

	// Replay the mutations to know the graph after each batch, and for
	// every perturbation find the next all-output round and validate it
	// as an MIS of the then-current graph.
	gcur := g0.Clone()
	for bi, b := range sc.Batches {
		for _, mu := range b.Muts {
			if err := mu.Apply(gcur); err != nil {
				t.Fatal(err)
			}
		}
		nextPerturb := len(timeline)
		if bi+1 < len(res.PerturbedAt) {
			nextPerturb = res.PerturbedAt[bi+1]
		}
		recovered := false
		for r := res.PerturbedAt[bi]; r < nextPerturb; r++ {
			states := timeline[r] // timeline[r] = states after round r+1
			inSet, err := mis.Extract(states)
			if err != nil {
				continue // not yet an output configuration
			}
			if err := gcur.IsMaximalIndependentSet(inSet); err != nil {
				t.Fatalf("perturbation %d: output configuration at round %d is not an MIS: %v", bi, r+1, err)
			}
			recovered = true
			break
		}
		if !recovered {
			t.Fatalf("perturbation %d (round %d): no valid output configuration before the next perturbation",
				bi, res.PerturbedAt[bi])
		}
	}

	// The final configuration must be an MIS of the final graph.
	finalSet, err := mis.Extract(res.States)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FinalGraph.IsMaximalIndependentSet(finalSet); err != nil {
		t.Fatalf("final configuration is not an MIS of the final graph: %v", err)
	}
	if !sameGraph(res.FinalGraph, gcur) {
		t.Fatal("FinalGraph does not match the replayed mutation sequence")
	}
	if res.RecoveryRounds <= 0 || res.Rounds-res.RecoveryRounds != res.PerturbedAt[len(res.PerturbedAt)-1] {
		t.Fatalf("recovery metric inconsistent: rounds=%d recovery=%d perturbedAt=%v",
			res.Rounds, res.RecoveryRounds, res.PerturbedAt)
	}
}

// TestAsyncMaxStepsAbort pins AsyncConfig.MaxSteps under adversarial
// delays: a machine with an unreachable output state must abort with
// ErrNoConvergence at the budget, identically in both engines, under
// every adversary policy.
func TestAsyncMaxStepsAbort(t *testing.T) {
	stay := func(q nfsm.State) []nfsm.Move { return []nfsm.Move{{Next: q, Emit: 0}} }
	spin := &nfsm.Protocol{
		Name:        "spin",
		StateNames:  []string{"a", "b", "done"},
		LetterNames: []string{"tick"},
		Input:       []nfsm.State{0},
		Output:      []bool{false, false, true},
		Initial:     0,
		B:           1,
		Query:       []nfsm.Letter{0, 0, 0},
		Delta: [][][]nfsm.Move{
			{{{Next: 1, Emit: 0}}, {{Next: 1, Emit: 0}}},
			{{{Next: 0, Emit: 0}}, {{Next: 0, Emit: 0}}},
			{stay(2), stay(2)},
		},
	}
	if err := spin.Validate(); err != nil {
		t.Fatal(err)
	}
	g := graph.Cycle(8)
	for name := range engine.NamedAdversaries(0) {
		for _, maxSteps := range []int64{1, 64, 1000} {
			mk := func() engine.AsyncConfig {
				return engine.AsyncConfig{
					Seed: 3, Adversary: engine.NamedAdversaries(11)[name], MaxSteps: maxSteps,
				}
			}
			_, gotErr := engine.RunAsync(spin, g, mk())
			_, refErr := engine.RunAsyncRef(spin, g, mk())
			if !errors.Is(gotErr, engine.ErrNoConvergence) {
				t.Fatalf("%s maxSteps=%d: compiled engine returned %v, want ErrNoConvergence", name, maxSteps, gotErr)
			}
			if refErr == nil || gotErr.Error() != refErr.Error() {
				t.Fatalf("%s maxSteps=%d: abort mismatch:\nreference: %v\ncompiled:  %v", name, maxSteps, refErr, gotErr)
			}
		}
	}
}
