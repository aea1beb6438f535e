package engine

import (
	"errors"
	"fmt"
	"math"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// syncPend is a channel-delayed synchronous delivery: a reordering
// model's extra delay rounds up to whole rounds, and the letter lands
// in the deliver phase of round due (resolving the destination port
// against the topology of that round — a removed edge severs it).
type syncPend struct {
	due      int
	from, to int32
	letter   nfsm.Letter
}

// This file is the fast dynamic synchronous executor: the compiled
// engine's round loop extended with the scenario hook. Between rounds
// it applies mutation batches — carrying surviving node state and the
// letter of every surviving port across CSR re-binds (graph.RemapPorts
// keys per-edge state by the directed edge, not its slot), resetting
// perturbed nodes per the scenario's reset policy, and tracking node
// liveness — and on the way out it reports the recovery-time metric.
// The naive counterpart in dynamic_sync_ref.go implements the same
// semantics from scratch on the seed engine's representation; the
// differential and fuzz suites (dynamic_test.go, fuzz_test.go) pin the
// two to each other, which is what licenses trusting this one.

// errResetAuto rejects unresolved reset policies: the engines do not
// know protocol capabilities, so scenario.ResetAuto must be resolved by
// the protocol layer (or the caller) before a run starts.
var errResetAuto = errors.New("engine: scenario reset policy auto must be resolved before execution")

// prepScenario validates the scenario against the bound graph and
// rejects unresolved reset policies. Both engines of each environment
// run it first, so invalid scenarios fail identically everywhere.
func prepScenario(sc *scenario.Scenario, g *graph.Graph) error {
	if sc.Reset == scenario.ResetAuto {
		return errResetAuto
	}
	return sc.Validate(g)
}

// byzIndex maps each node to its position in the scenario's Byzantine
// list (-1 for honest nodes), validating every behavior against the
// node count and alphabet size. Every scenario-capable executor calls
// it, so an ill-formed Byzantine set fails identically everywhere.
func byzIndex(byz []channel.ByzNode, n, nl int) ([]int32, error) {
	if len(byz) == 0 {
		return nil, nil
	}
	idx := make([]int32, n)
	for v := range idx {
		idx[v] = -1
	}
	for i, b := range byz {
		if err := b.Validate(n, nl); err != nil {
			return nil, err
		}
		if idx[b.Node] >= 0 {
			return nil, fmt.Errorf("engine: duplicate byzantine node %d", b.Node)
		}
		idx[b.Node] = int32(i)
	}
	return idx, nil
}

// portSlot returns the CSR slot of node to's port from node from, or -1
// when {from, to} is not an edge of the snapshot (binary search over
// to's sorted run).
func portSlot(csr *graph.CSR, to, from int) int32 {
	lo, hi := csr.NbrOff[to], csr.NbrOff[to+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if csr.NbrDat[mid] < int32(from) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < csr.NbrOff[to+1] && csr.NbrDat[lo] == int32(from) {
		return lo
	}
	return -1
}

// resetStateOf returns the state a rebooted node v resumes from: its
// per-node input when the run was configured with one, the machine's
// default input state otherwise.
func resetStateOf(m nfsm.Machine, init []nfsm.State, v int) nfsm.State {
	if init != nil {
		return init[v]
	}
	return m.InputState()
}

// runSyncScenario executes the compiled program with a dynamic-network
// scenario. The loop is sequential: trial-level parallelism (the
// campaign runner) is where dynamic sweeps get their concurrency; each
// worker's scratch arena is reused here exactly as on the static path
// (scr may be nil for a private one).
func (p *Program) runSyncScenario(cfg SyncConfig, scr *Scratch) (*SyncResult, error) {
	sc := cfg.Scenario
	if sc == nil {
		// A channel model alone routes here; run the empty scenario.
		sc = &scenario.Scenario{Reset: scenario.ResetNone}
	}
	if p.g == nil {
		return nil, fmt.Errorf("engine: scenario and channel runs need a graph-bound program (Bind, not BindCSR)")
	}
	if err := prepScenario(sc, p.g); err != nil {
		return nil, err
	}
	if scr == nil {
		scr = NewScratch()
	}
	g := p.g.Clone()
	n := g.N()
	states, err := initialStates(p.m, n, cfg.Init)
	if err != nil {
		return nil, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 20
	}

	cur := p.csr
	scr.bind(p.MachineCode)
	rc := &scr.rc
	rc.reset(p, cur)
	ds := &scr.ds
	ds.init(p.MachineCode)
	live := scenario.NewLiveness(n, sc.Asleep)
	byz, err := byzIndex(sc.Byzantine, n, p.nl)
	if err != nil {
		return nil, err
	}
	isByz := func(v int) bool { return byz != nil && byz[v] >= 0 }
	if cap(scr.emits) < n {
		scr.emits = make([]nfsm.Letter, n)
	}
	emits := scr.emits[:n]
	emitters := scr.emitters[:0]
	defer func() { scr.emitters = emitters[:0] }()

	// Channel model (nil = reliable links). Only a reordering model can
	// defer a delivery past its send round, so the pending list and the
	// per-edge horizon map stay empty otherwise.
	model := cfg.Channel
	reorders := model != nil && model.Reorders()
	var chStats channel.Stats
	var chBuf []channel.Fate
	var pend []syncPend
	var horizon map[uint64]int
	if reorders {
		horizon = make(map[uint64]int)
	}

	res := &SyncResult{States: states, FinalGraph: g}
	// Byzantine nodes never reach an output state: termination is every
	// awake honest node in an output state. target() is that count.
	outputs, awakeByz := 0, 0
	countLive := func() {
		outputs, awakeByz = 0, 0
		for v := 0; v < n; v++ {
			if !live.Awake(v) {
				continue
			}
			if isByz(v) {
				awakeByz++
			} else if p.isOutput(states[v]) {
				outputs++
			}
		}
	}
	countLive()
	target := func() int { return live.NumAwake() - awakeByz }
	nextBatch := 0
	lastPerturb := 0
	// stable counts consecutive rounds ending in an awake output
	// configuration. After a perturbation, termination requires TWO such
	// rounds: a batch leaves fresh ports holding the initial letter for
	// one round, so a configuration can look terminal before the
	// perturbation's effects have propagated — one confirmation round
	// closes exactly that window (every awake node re-transmits and
	// every port is delivered real letters in between).
	stable := 0
	if nextBatch == len(sc.Batches) && outputs == target() {
		return res, nil
	}

	// applyBatch mutates graph and liveness, re-binds the layout on
	// topology change, and resets the policy's node set plus every
	// restarted/woken node.
	applyBatch := func(b scenario.Batch) error {
		topo := false
		var started []int
		for _, m := range b.Muts {
			st, err := live.Apply(m)
			if err != nil {
				return err
			}
			started = append(started, st...)
			if err := m.Apply(g); err != nil {
				return err
			}
			topo = topo || m.Topological()
		}
		if topo {
			next := g.CSR()
			rc.rebind(next, graph.RemapPorts(cur, next))
			cur = next
		}
		for _, v := range b.ResetSet(sc.Reset, g) {
			if live.Awake(v) {
				states[v] = resetStateOf(p.m, cfg.Init, v)
				rc.resetNode(v, cur)
			}
		}
		for _, v := range started {
			states[v] = resetStateOf(p.m, cfg.Init, v)
			rc.resetNode(v, cur)
		}
		countLive()
		return nil
	}

	for round := 1; round <= maxRounds; round++ {
		for nextBatch < len(sc.Batches) && int(sc.Batches[nextBatch].At) < round {
			if err := applyBatch(sc.Batches[nextBatch]); err != nil {
				return nil, err
			}
			nextBatch++
			lastPerturb = round - 1
			res.PerturbedAt = append(res.PerturbedAt, round-1)
		}

		// Compute phase over the awake nodes against the frozen ports.
		emitters = emitters[:0]
		for v := 0; v < n; v++ {
			if !live.Awake(v) {
				continue
			}
			if isByz(v) {
				// Byzantine node: never runs δ (its state stays put),
				// emits whatever its behavior dictates; its traffic
				// rides the channel like any other.
				if l := sc.Byzantine[byz[v]].Emit(round, p.nl); l != nfsm.NoLetter {
					emits[v] = l
					emitters = append(emitters, int32(v))
				}
				continue
			}
			q := states[v]
			moves := rc.movesFor(v, q, ds)
			if len(moves) == 0 {
				return nil, deltaEmptyErr(v, q, round)
			}
			mv := nfsm.PickMove(cfg.Seed, v, round, moves)
			if p.isOutput(mv.Next) != p.isOutput(q) {
				if p.isOutput(mv.Next) {
					outputs++
				} else {
					outputs--
				}
			}
			states[v] = mv.Next
			if mv.Emit != nfsm.NoLetter {
				emits[v] = mv.Emit
				emitters = append(emitters, int32(v))
			}
		}

		// Deliver phase: ports of every neighbor are link-endpoint
		// memory and receive the letter regardless of the neighbor's
		// liveness (a reboot clears them anyway). Deliveries deferred by
		// a reordering channel land first, so the round's own traffic
		// overwrites stale letters, never the other way around.
		if model != nil && len(pend) > 0 {
			keep := pend[:0]
			for _, pd := range pend {
				if pd.due != round {
					keep = append(keep, pd)
					continue
				}
				if k := portSlot(cur, int(pd.to), int(pd.from)); k >= 0 {
					rc.setPort(int(pd.to), k, pd.letter)
				} else {
					res.Severed++ // edge removed before the due round
				}
			}
			pend = keep
		}
		for _, v := range emitters {
			l := emits[v]
			res.Transmissions++
			if model == nil {
				for k := cur.NbrOff[v]; k < cur.NbrOff[v+1]; k++ {
					rc.setPort(int(cur.NbrDat[k]), cur.NbrOff[cur.NbrDat[k]]+cur.RevPort[k], l)
				}
				continue
			}
			for k := cur.NbrOff[v]; k < cur.NbrOff[v+1]; k++ {
				u := int(cur.NbrDat[k])
				chBuf = channel.Expand(model, int(v), round, u, l, p.nl, chBuf, &chStats)
				for _, f := range chBuf {
					delay := int(math.Ceil(f.Extra))
					if reorders {
						key := uint64(uint32(v))<<32 | uint64(uint32(u))
						if due := round + delay; due < horizon[key] {
							res.Reordered++ // an overtake on this edge
						} else {
							horizon[key] = due
						}
					}
					if delay == 0 {
						rc.setPort(u, cur.NbrOff[u]+cur.RevPort[k], f.Letter)
					} else {
						pend = append(pend, syncPend{due: round + delay, from: v, to: int32(u), letter: f.Letter})
					}
				}
			}
		}

		if cfg.Observer != nil {
			cfg.Observer(round, states)
		}
		if nextBatch == len(sc.Batches) && outputs == target() {
			stable++
		} else {
			stable = 0
		}
		if stable >= 2 || (stable >= 1 && len(res.PerturbedAt) == 0) {
			res.Rounds = round
			if len(res.PerturbedAt) > 0 {
				res.RecoveryRounds = round - lastPerturb
			}
			res.Dropped, res.Duplicated, res.Delayed, res.Corrupted = chStats.Dropped, chStats.Duplicated, chStats.Delayed, chStats.Corrupted
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w: %s after %d rounds", ErrNoConvergence, machineName(p.m), maxRounds)
}
