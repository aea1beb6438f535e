package engine

import (
	"fmt"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// SyncConfig parameterizes a locally synchronous run.
type SyncConfig struct {
	// Seed keys every random choice of the run.
	Seed uint64
	// MaxRounds aborts the run with ErrNoConvergence when exceeded.
	// Zero selects a generous default of 1<<20 rounds.
	MaxRounds int
	// Init optionally assigns per-node initial states (length n). Nil
	// starts every node in the machine's default input state. This is
	// how per-node input (Section 2, "Input and Output") is delivered,
	// e.g. the tape contents of the Lemma 6.2 rLBA simulation.
	Init []nfsm.State
	// Observer, when non-nil, is invoked after every round with the
	// round index and the current state vector (not a copy; observers
	// must not retain or modify it). Used by the analysis
	// instrumentation of Sections 4 and 5.
	Observer func(round int, states []nfsm.State)
	// Workers shards the per-round compute and deliver phases across
	// goroutines. Zero selects GOMAXPROCS, scaled down so every worker
	// keeps at least minShard nodes; an explicit positive value is used
	// as given. The result is bit-identical for every worker count —
	// every node's move is drawn from the node-indexed deterministic
	// coin, independent of evaluation order. Machines whose transition
	// is not known to be pure (e.g. the lazily-interning synchro
	// compilers) always run on one worker, and so do scenario and
	// channel runs (see RunSyncReusing); Workers is ignored there.
	Workers int
	// Scenario, when non-nil and non-empty, makes the run dynamic: the
	// engine applies each mutation batch after round int(Batch.At)
	// completes, carries surviving node and port state across topology
	// re-binds, resets perturbed nodes per the scenario's reset policy
	// (which must be concrete — the protocol layer resolves ResetAuto),
	// and reports recovery metrics. Nil or empty scenarios take the
	// unchanged static path; a non-empty one adds its hooks to the
	// same round loop.
	Scenario *scenario.Scenario
	// Channel, when non-nil, subjects every transmission to an
	// unreliable-link model, realized as a per-round port filter: each
	// per-neighbor copy is expanded through the model into zero or more
	// delivered fates (dropped, duplicated, corrupted, or — for a
	// reordering model — delayed by whole rounds; see package channel).
	// Channel runs are sequential like scenario runs and share their
	// round loop; a nil Channel is the unchanged path.
	Channel channel.Model
	// Backend selects the synchronous executor. Empty means automatic:
	// the bit-plane packed backend (see packed.go) when the machine is
	// packed-eligible, the run is static (no Scenario, no Channel) and
	// the graph is large enough to profit; the flat executor otherwise.
	// BackendFlat forces the flat executor; BackendPacked forces the
	// packed one and errors when the machine or run shape does not
	// support it. All backends are bit-identical on the runs they
	// share, so the choice is purely a performance knob.
	Backend string
}

// SyncResult reports a completed synchronous run.
type SyncResult struct {
	// Rounds is the number of rounds until the first output
	// configuration (for a dynamic run: the first output configuration
	// of the awake nodes after the last mutation batch).
	Rounds int
	// Transmissions counts non-ε letter transmissions.
	Transmissions int64
	// States is the final state of every node.
	States []nfsm.State

	// PerturbedAt lists, for a dynamic run, the round each mutation
	// batch was applied after (batch i applied between rounds
	// PerturbedAt[i] and PerturbedAt[i]+1). Nil for static runs.
	PerturbedAt []int
	// RecoveryRounds is the recovery-time metric of a dynamic run: the
	// rounds from the last perturbation to the final valid output
	// configuration (0 when nothing was perturbed).
	RecoveryRounds int
	// FinalGraph is the post-mutation topology of a dynamic run — the
	// graph any output validator must be checked against. Nil for
	// static runs (the input graph is the final graph).
	FinalGraph *graph.Graph

	// Channel-model bookkeeping (all zero when no model is configured).
	// Dropped, Duplicated and Corrupted count the model's per-copy
	// decisions; Delayed counts copies assigned a non-zero extra delay
	// (attempted reorders); Reordered counts deliveries scheduled for an
	// earlier round than an already-scheduled one on the same directed
	// edge (the attempts that materialized); Severed counts delayed
	// deliveries whose edge was removed before their due round.
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Reordered  int64
	Corrupted  int64
	Severed    int64
}

// RunSync executes machine m on graph g in a locally synchronous
// environment: in every round each node observes the clamped counts over
// its ports, applies δ, and all transmissions become visible in the
// neighbors' ports at the start of the next round. This realizes
// synchronization properties (S1) and (S2) exactly.
//
// RunSync executes through the compiled fast path: it lowers m against g
// with Compile and runs the flat program. Callers that execute the same
// machine on the same graph repeatedly should Compile once and invoke
// Program.RunSync directly to amortize the lowering. The original
// interpreting engine survives as RunSyncRef; the two are bit-identical
// (TestDifferentialSyncEngines).
func RunSync(m nfsm.Machine, g *graph.Graph, cfg SyncConfig) (*SyncResult, error) {
	return Compile(m, g).RunSync(cfg)
}

// RunSyncRef is the reference synchronous engine: a direct transcription
// of the model — interface dispatch into m.Moves, full count-vector
// recomputation per node per round, nested-slice adjacency. It is kept
// as the oracle the compiled executor is differentially tested against;
// use RunSync everywhere else.
func RunSyncRef(m nfsm.Machine, g *graph.Graph, cfg SyncConfig) (*SyncResult, error) {
	if !cfg.Scenario.Empty() || cfg.Channel != nil {
		return runSyncRefScenario(m, g, cfg)
	}
	n := g.N()
	states, err := initialStates(m, n, cfg.Init)
	if err != nil {
		return nil, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 20
	}

	topo := newPortTopology(g)
	cnt := newCounter(m)

	// ports[v][i] holds the last letter delivered from g.Neighbors(v)[i].
	ports := make([][]nfsm.Letter, n)
	for v := 0; v < n; v++ {
		ports[v] = make([]nfsm.Letter, g.Degree(v))
		for i := range ports[v] {
			ports[v][i] = m.InitialLetter()
		}
	}

	res := &SyncResult{States: states}
	outputs := countOutputs(m, states)
	if outputs == n {
		return res, nil
	}

	// emits[v] buffers node v's transmission for end-of-round delivery.
	emits := make([]nfsm.Letter, n)

	for round := 1; round <= maxRounds; round++ {
		for v := 0; v < n; v++ {
			q := states[v]
			moves := m.Moves(q, cnt.counts(q, ports[v]))
			if len(moves) == 0 {
				return nil, fmt.Errorf("engine: δ empty at node %d state %d round %d", v, q, round)
			}
			mv := nfsm.PickMove(cfg.Seed, v, round, moves)
			if m.IsOutput(mv.Next) != m.IsOutput(q) {
				if m.IsOutput(mv.Next) {
					outputs++
				} else {
					outputs--
				}
			}
			states[v] = mv.Next
			emits[v] = mv.Emit
		}
		// Deliver all transmissions: visible from the next round on.
		for v := 0; v < n; v++ {
			l := emits[v]
			if l == nfsm.NoLetter {
				continue
			}
			res.Transmissions++
			for i, u := range g.Neighbors(v) {
				ports[u][topo.rev[v][i]] = l
			}
		}
		if cfg.Observer != nil {
			cfg.Observer(round, states)
		}
		if outputs == n {
			res.Rounds = round
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w: %s after %d rounds", ErrNoConvergence, machineName(m), maxRounds)
}

func machineName(m nfsm.Machine) string {
	switch p := m.(type) {
	case *nfsm.Protocol:
		return p.Name
	case *nfsm.RoundProtocol:
		return p.Name
	default:
		return fmt.Sprintf("%T", m)
	}
}
