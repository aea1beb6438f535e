package engine

import (
	"container/heap"
	"fmt"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// This file is the dynamic reference engine for the asynchronous
// environment: the same scenario semantics as the scenario hooks of
// Program.RunAsyncReusing, implemented independently in the seed
// engine's style — nested-slice ports and timing state in adjacency
// order, interface dispatch, per-step count recomputation,
// container/heap event queue, and a from-scratch rebuild of every
// nested structure at each mutation batch (with per-edge state carried
// by looking ports up through the previous graph). The differential suites compare it bit for bit with
// the production executor.

// dynEvent is the seed dynamic engine's queue entry, the reference
// oracle's own (the production executor uses the ladder queue's
// qevent).
type dynEvent struct {
	time    float64
	seq     uint64
	node    int         // stepping node, or the delivery's destination
	from    int         // delivery only: the transmitting node
	letter  nfsm.Letter // delivery only
	epoch   uint32      // step only: liveness epoch at scheduling time
	step    bool
	corrupt bool // delivery only: letter rewritten by the channel
}

// refDynHeap is the container/heap-boxed queue of dynamic events.
type refDynHeap []dynEvent

func (h refDynHeap) Len() int { return len(h) }
func (h refDynHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refDynHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refDynHeap) Push(x interface{}) { *h = append(*h, x.(dynEvent)) }
func (h *refDynHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// runAsyncRefScenario executes machine m on g under cfg.Scenario with
// the reference representation.
func runAsyncRefScenario(m nfsm.Machine, g0 *graph.Graph, cfg AsyncConfig) (*AsyncResult, error) {
	sc := cfg.Scenario
	if err := prepScenario(sc, g0); err != nil {
		return nil, err
	}
	g := g0.Clone()
	n := g.N()
	states, err := initialStates(m, n, cfg.Init)
	if err != nil {
		return nil, err
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = Synchronous{}
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1 << 24
	}

	cnt := newCounter(m)
	live := scenario.NewLiveness(n, sc.Asleep)
	nl := m.NumLetters()
	byz, err := byzIndex(sc.Byzantine, n, nl)
	if err != nil {
		return nil, err
	}
	isByz := func(v int) bool { return byz != nil && byz[v] >= 0 }

	model := cfg.Channel
	reorders := model != nil && model.Reorders()
	var chStats channel.Stats
	var chBuf []channel.Fate

	// Voted tier: same slot addressing as the static reference engine
	// (prefix-degree offsets over the sorted adjacency), same up-front
	// rejection of topological mutations as the fast executor.
	var vs *votedState
	var portBase []int32
	if cfg.Voted != nil {
		for _, b := range sc.Batches {
			for _, mu := range b.Muts {
				if mu.Topological() {
					return nil, fmt.Errorf("engine: voted synchronizer does not support topological mutations (batch at %g)", b.At)
				}
			}
		}
		portBase = make([]int32, n+1)
		for v := 0; v < n; v++ {
			portBase[v+1] = portBase[v] + int32(g.Degree(v))
		}
		vs = newVotedState(cfg.Voted, int(portBase[n]))
	}

	// All per-port state in adjacency order: ports[v][i] pairs with
	// g.Neighbors(v)[i]; lastDelivery[v][i] is the FIFO horizon of the
	// directed edge v → Neighbors(v)[i].
	ports := make([][]nfsm.Letter, n)
	portWriteAt := make([][]float64, n)
	lastDelivery := make([][]float64, n)
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		ports[v] = make([]nfsm.Letter, deg)
		portWriteAt[v] = make([]float64, deg)
		lastDelivery[v] = make([]float64, deg)
		for i := range ports[v] {
			ports[v][i] = m.InitialLetter()
			portWriteAt[v][i] = -1
		}
	}

	epoch := make([]uint32, n)
	stepIndex := make([]int, n)
	lastStepAt := make([]float64, n)

	// Post-perturbation settling window; see RunAsyncReusing.
	stepsSince := make([]int, n)
	lagging := 0

	res := &AsyncResult{States: states, FinalGraph: g}
	outputs, awakeByz := 0, 0
	countLive := func() {
		outputs, awakeByz = 0, 0
		for v := 0; v < n; v++ {
			if !live.Awake(v) {
				continue
			}
			if isByz(v) {
				awakeByz++
			} else if m.IsOutput(states[v]) {
				outputs++
			}
		}
	}
	countLive()
	target := func() int { return live.NumAwake() - awakeByz }

	var (
		h        refDynHeap
		seq      uint64
		maxParam float64
	)
	useParam := func(d float64, kind string, v, t int) (float64, error) {
		if d <= 0 {
			return 0, fmt.Errorf("engine: adversary returned non-positive %s %g for node %d step %d", kind, d, v, t)
		}
		if d > maxParam {
			maxParam = d
		}
		return d, nil
	}
	push := func(e dynEvent) {
		e.seq = seq
		seq++
		heap.Push(&h, e)
	}
	scheduleStep := func(v int, after float64) error {
		t := stepIndex[v] + 1
		l, err := useParam(adv.StepLength(v, t), "step length", v, t)
		if err != nil {
			return err
		}
		push(dynEvent{time: after + l, node: v, epoch: epoch[v], step: true})
		return nil
	}
	timeUnits := func(t float64) float64 {
		if maxParam == 0 {
			return 0
		}
		return t / maxParam
	}

	resetNode := func(v int) {
		states[v] = resetStateOf(m, cfg.Init, v)
		for i := range ports[v] {
			ports[v][i] = m.InitialLetter()
			portWriteAt[v][i] = -1
		}
		if vs != nil {
			vs.resetSlots(portBase[v], portBase[v+1])
		}
	}

	applyBatch := func(b scenario.Batch) error {
		prev := g.Clone()
		topoChanged := false
		var started []int
		for _, mu := range b.Muts {
			st, err := live.Apply(mu)
			if err != nil {
				return err
			}
			started = append(started, st...)
			if mu.Kind == graph.MutCrashNode {
				epoch[mu.U]++
			}
			if err := mu.Apply(g); err != nil {
				return err
			}
			topoChanged = topoChanged || mu.Topological()
		}
		if topoChanged {
			nextPorts := make([][]nfsm.Letter, n)
			nextWrite := make([][]float64, n)
			nextFIFO := make([][]float64, n)
			for v := 0; v < n; v++ {
				nb := g.Neighbors(v)
				nextPorts[v] = make([]nfsm.Letter, len(nb))
				nextWrite[v] = make([]float64, len(nb))
				nextFIFO[v] = make([]float64, len(nb))
				for i, u := range nb {
					if o := prev.PortOf(v, u); o >= 0 {
						nextPorts[v][i] = ports[v][o]
						nextWrite[v][i] = portWriteAt[v][o]
						nextFIFO[v][i] = lastDelivery[v][o]
					} else {
						nextPorts[v][i] = m.InitialLetter()
						nextWrite[v][i] = -1
					}
				}
			}
			ports, portWriteAt, lastDelivery = nextPorts, nextWrite, nextFIFO
		}
		for _, v := range b.ResetSet(sc.Reset, g) {
			if live.Awake(v) {
				resetNode(v)
			}
		}
		for _, v := range started {
			resetNode(v)
		}
		countLive()
		for v := range stepsSince {
			stepsSince[v] = 0
		}
		lagging = live.NumAwake()
		for _, v := range started {
			if err := scheduleStep(v, b.At); err != nil {
				return err
			}
		}
		return nil
	}

	for v := 0; v < n; v++ {
		if !live.Awake(v) {
			continue
		}
		if err := scheduleStep(v, 0); err != nil {
			return nil, err
		}
	}

	nextBatch := 0
	lastPerturb := 0.0
	if nextBatch == len(sc.Batches) && outputs == target() {
		return res, nil
	}

	for {
		if nextBatch < len(sc.Batches) && (h.Len() == 0 || h[0].time >= sc.Batches[nextBatch].At) {
			b := sc.Batches[nextBatch]
			if err := applyBatch(b); err != nil {
				return nil, err
			}
			nextBatch++
			lastPerturb = b.At
			res.PerturbedAt = append(res.PerturbedAt, b.At)
			if nextBatch == len(sc.Batches) && outputs == target() && lagging == 0 {
				res.Time = b.At
				res.TimeUnits = timeUnits(b.At)
				res.Dropped, res.Duplicated, res.Delayed, res.Corrupted = chStats.Dropped, chStats.Duplicated, chStats.Delayed, chStats.Corrupted
				res.Outvoted = chStats.Outvoted
				if vs != nil {
					vs.fill(res)
				}
				return res, nil
			}
			continue
		}
		if h.Len() == 0 {
			break
		}
		e := heap.Pop(&h).(dynEvent)
		if !e.step {
			i := g.PortOf(e.node, e.from)
			if i < 0 {
				res.Severed++ // edge removed mid-flight: traffic lost with it
				continue
			}
			if vs != nil {
				slot := portBase[e.node] + int32(i)
				outcome, winner := vs.receive(slot, e.letter, ports[e.node][i])
				if outcome == voteCommit {
					if portWriteAt[e.node][i] > lastStepAt[e.node] {
						res.Lost++
					}
					ports[e.node][i] = winner
					portWriteAt[e.node][i] = e.time
				}
				if e.corrupt && vs.outvoted(outcome, winner, e.letter) {
					chStats.Outvoted++
				}
				continue
			}
			if portWriteAt[e.node][i] > lastStepAt[e.node] {
				res.Lost++
			}
			ports[e.node][i] = e.letter
			portWriteAt[e.node][i] = e.time
			continue
		}
		if e.epoch != epoch[e.node] {
			continue
		}

		v := e.node
		t := stepIndex[v] + 1
		q := states[v]
		emit := nfsm.NoLetter
		if isByz(v) {
			emit = sc.Byzantine[byz[v]].Emit(t, nl)
		} else {
			moves := m.Moves(q, cnt.counts(q, ports[v]))
			if len(moves) == 0 {
				return nil, fmt.Errorf("engine: δ empty at node %d state %d step %d", v, q, t)
			}
			mv := nfsm.PickMove(cfg.Seed, v, t, moves)
			if m.IsOutput(mv.Next) != m.IsOutput(q) {
				if m.IsOutput(mv.Next) {
					outputs++
				} else {
					outputs--
				}
			}
			states[v] = mv.Next
			emit = mv.Emit
		}
		stepIndex[v] = t
		lastStepAt[v] = e.time
		res.Steps++
		if stepsSince[v] < 2 {
			stepsSince[v]++
			if stepsSince[v] == 2 && lagging > 0 {
				lagging--
			}
		}
		if cfg.Observer != nil {
			cfg.Observer(e.time, v, t, states[v])
		}

		if emit != nfsm.NoLetter && vs != nil {
			// Voted tier: see RunAsyncReusing — honest emissions burst K
			// copies per edge, re-pulses are gated per edge, Byzantine
			// traffic is one ungated copy.
			isRP := !isByz(v) && vs.isRePulse != nil && vs.isRePulse(q)
			if isRP {
				vs.rePulses++
			}
			K := 1
			if !isByz(v) {
				K = int(vs.k)
			}
			sent := false
			for i, u := range g.Neighbors(v) {
				slot := portBase[v] + int32(i)
				if isRP {
					send, evictNow := vs.fireEdge(slot)
					if evictNow {
						ports[v][i] = nfsm.NoLetter
						res.EvictedEdges = append(res.EvictedEdges, [2]int{v, u})
					}
					if !send {
						continue
					}
				}
				d, err := useParam(adv.Delay(v, t, u), "delay", v, t)
				if err != nil {
					return nil, err
				}
				sent = true
				for c := 0; c < K; c++ {
					if model == nil {
						at := e.time + d
						if at < lastDelivery[v][i] {
							at = lastDelivery[v][i]
						}
						lastDelivery[v][i] = at
						push(dynEvent{time: at, node: u, from: v, letter: emit})
						continue
					}
					chBuf = channel.ExpandAt(model, v, t, u, c, emit, nl, chBuf, &chStats)
					for _, f := range chBuf {
						at := e.time + d + f.Extra
						if reorders {
							if at < lastDelivery[v][i] {
								res.Reordered++
							} else {
								lastDelivery[v][i] = at
							}
						} else {
							if at < lastDelivery[v][i] {
								at = lastDelivery[v][i]
							}
							lastDelivery[v][i] = at
						}
						push(dynEvent{time: at, node: u, from: v, letter: f.Letter, corrupt: f.Corrupt})
					}
				}
			}
			if sent {
				res.Transmissions++
			}
		} else if emit != nfsm.NoLetter {
			res.Transmissions++
			for i, u := range g.Neighbors(v) {
				d, err := useParam(adv.Delay(v, t, u), "delay", v, t)
				if err != nil {
					return nil, err
				}
				if model == nil {
					at := e.time + d
					if at < lastDelivery[v][i] {
						at = lastDelivery[v][i]
					}
					lastDelivery[v][i] = at
					push(dynEvent{time: at, node: u, from: v, letter: emit})
					continue
				}
				chBuf = channel.Expand(model, v, t, u, emit, nl, chBuf, &chStats)
				for _, f := range chBuf {
					at := e.time + d + f.Extra
					if reorders {
						if at < lastDelivery[v][i] {
							res.Reordered++
						} else {
							lastDelivery[v][i] = at
						}
					} else {
						if at < lastDelivery[v][i] {
							at = lastDelivery[v][i]
						}
						lastDelivery[v][i] = at
					}
					push(dynEvent{time: at, node: u, from: v, letter: f.Letter})
				}
			}
		}

		if nextBatch == len(sc.Batches) && outputs == target() &&
			(lagging == 0 || len(res.PerturbedAt) == 0) {
			res.Time = e.time
			res.TimeUnits = timeUnits(e.time)
			if len(res.PerturbedAt) > 0 {
				res.RecoveryTime = e.time - lastPerturb
				res.RecoveryTimeUnits = timeUnits(res.RecoveryTime)
			}
			res.Dropped, res.Duplicated, res.Delayed, res.Corrupted = chStats.Dropped, chStats.Duplicated, chStats.Delayed, chStats.Corrupted
			res.Outvoted = chStats.Outvoted
			if vs != nil {
				vs.fill(res)
			}
			return res, nil
		}
		if res.Steps >= maxSteps {
			return nil, fmt.Errorf("%w: %s after %d steps", ErrNoConvergence, machineName(m), res.Steps)
		}
		if err := scheduleStep(v, e.time); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: event queue drained", ErrNoConvergence)
}
