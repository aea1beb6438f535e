package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// minShard is the smallest per-worker node range the default worker
// count will create: below it the barrier overhead of a round outweighs
// the sharded compute. An explicit SyncConfig.Workers bypasses the
// heuristic.
const minShard = 256

// shardWorkers resolves a requested worker count for n nodes: zero or
// negative selects GOMAXPROCS, scaled down so every worker keeps at
// least minShard nodes; the result is clamped to [1, limit].
func shardWorkers(workers, n, limit int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if max := n / minShard; workers > max {
			workers = max
		}
	}
	if workers > limit {
		workers = limit
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// shardResult carries one worker's per-phase aggregates back to the
// coordinator.
type shardResult struct {
	tx       int64
	outDelta int
	err      error
}

// RunSync executes the compiled program in the locally synchronous
// environment. Rounds are two-phase: a compute phase applies δ to every
// node against the port contents frozen at the end of the previous round,
// and a deliver phase makes all transmissions visible for the next round.
// Both phases shard the node range across workers with a barrier in
// between; because every per-node computation reads only that node's own
// state and ports and the deliver phase gathers from the frozen emit
// buffer, the result is bit-identical for every worker count (see
// DESIGN.md for the argument, and TestDifferentialSyncEngines for the
// enforcement).
func (p *Program) RunSync(cfg SyncConfig) (*SyncResult, error) {
	return p.RunSyncReusing(cfg, nil)
}

// RunSyncReusing executes the compiled program synchronously, reusing
// the scratch arena's counters, buffers and dynamic-machine memos
// across runs (scr may be nil for a private arena). After picking the
// backend it is the only production flat synchronous executor: a
// non-empty cfg.Scenario or a cfg.Channel adds its hooks (batches,
// liveness, Byzantine emitters, the channel deliver, the confirmation
// window) to the static round loop. Those runs stay sequential: a
// re-bind renumbers the slots the shard routing buckets address, and
// the channel's pending list and reorder horizons are order-dependent
// shared state. The worker pool is per-run; tight trial loops run with
// Workers == 1 per worker goroutine and parallelize across trials
// instead, which is what the campaign runner does.
func (p *Program) RunSyncReusing(cfg SyncConfig, scr *Scratch) (*SyncResult, error) {
	sc := cfg.Scenario
	dyn := !sc.Empty() || cfg.Channel != nil
	switch cfg.Backend {
	case BackendPacked:
		if dyn {
			return nil, fmt.Errorf("engine: the packed backend supports neither scenarios nor channel models")
		}
		return p.runSyncPacked(cfg, scr)
	case BackendFlat:
		// forced flat
	case "":
		if !dyn && p.csr.N() >= packedAutoThreshold && p.PackedEligible() {
			return p.runSyncPacked(cfg, scr)
		}
	default:
		return nil, fmt.Errorf("engine: unknown sync backend %q (want %q or %q)", cfg.Backend, BackendFlat, BackendPacked)
	}
	var g *graph.Graph // the evolving topology of a scenario or channel run
	if dyn {
		if sc == nil {
			// A channel model alone runs the empty scenario.
			sc = &scenario.Scenario{Reset: scenario.ResetNone}
		}
		if p.g == nil {
			return nil, fmt.Errorf("engine: scenario and channel runs need a graph-bound program (Bind, not BindCSR)")
		}
		if err := prepScenario(sc, p.g); err != nil {
			return nil, err
		}
		g = p.g.Clone()
	}
	if scr == nil {
		scr = NewScratch()
	}
	n := p.csr.N()
	states, err := initialStates(p.m, n, cfg.Init)
	if err != nil {
		return nil, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 1 << 20
	}

	scr.bind(p.MachineCode)
	rc := &scr.rc
	rc.reset(p, p.csr)
	scr.ds.init(p.MachineCode)
	if cap(scr.emits) < n {
		scr.emits = make([]nfsm.Letter, n)
	}
	emits := scr.emits[:n]

	exec := &syncExec{p: p, csr: p.csr, rc: rc, states: states, emits: emits, seed: cfg.Seed}
	var batches []scenario.Batch
	if dyn {
		batches = sc.Batches
		exec.live = scenario.NewLiveness(n, sc.Asleep)
		if exec.byz, err = byzIndex(sc.Byzantine, n, p.nl); err != nil {
			return nil, err
		}
		exec.byzNodes = sc.Byzantine
		exec.model = cfg.Channel
		if exec.model != nil && exec.model.Reorders() {
			exec.horizon = make(map[uint64]int)
		}
		scr.pend = scr.pend[:0]
		exec.scr = scr
	}

	res := &SyncResult{States: states, FinalGraph: g}
	outputs, target := exec.countLive()
	if len(batches) == 0 && outputs == target {
		return res, nil
	}

	workers := 1
	if p.parallel && !dyn {
		workers = shardWorkers(cfg.Workers, n, n)
	}
	if workers > 1 {
		stop := exec.startWorkers(workers)
		defer stop()
	} else {
		exec.seqDS[0], exec.seqEmitters[0] = &scr.ds, scr.emitters[:0]
		exec.dss, exec.emitters = exec.seqDS[:], exec.seqEmitters[:]
		defer func() { scr.emitters = exec.emitters[0][:0] }()
	}

	nextBatch, lastPerturb := 0, 0
	// stable counts consecutive rounds ending in an awake output
	// configuration. After a perturbation, termination requires TWO such
	// rounds: a batch leaves fresh ports holding the initial letter for
	// one round, so a configuration can look terminal before the
	// perturbation's effects have propagated — one confirmation round
	// closes exactly that window (every awake node re-transmits and
	// every port is delivered real letters in between).
	stable := 0
	for round := 1; round <= maxRounds; round++ {
		for nextBatch < len(batches) && int(batches[nextBatch].At) < round {
			if err := exec.applyBatch(batches[nextBatch], g, sc.Reset, cfg.Init); err != nil {
				return nil, err
			}
			nextBatch++
			lastPerturb = round - 1
			res.PerturbedAt = append(res.PerturbedAt, round-1)
			outputs, target = exec.countLive()
		}
		tx, outDelta, err := exec.computePhase(round)
		if err != nil {
			return nil, err
		}
		res.Transmissions += tx
		outputs += outDelta
		if exec.model != nil {
			exec.deliverChannel(round, res)
		} else {
			exec.deliverPhase()
		}
		if cfg.Observer != nil {
			cfg.Observer(round, states)
		}
		if nextBatch == len(batches) && outputs == target {
			stable++
		} else {
			stable = 0
		}
		if stable >= 2 || (stable >= 1 && len(res.PerturbedAt) == 0) {
			res.Rounds = round
			if len(res.PerturbedAt) > 0 {
				res.RecoveryRounds = round - lastPerturb
			}
			st := exec.chStats
			res.Dropped, res.Duplicated, res.Delayed, res.Corrupted = st.Dropped, st.Duplicated, st.Delayed, st.Corrupted
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w: %s after %d rounds", ErrNoConvergence, machineName(p.m), maxRounds)
}

// syncExec owns the per-run buffers and the optional worker pool of a
// synchronous execution.
type syncExec struct {
	p      *Program
	csr    *graph.CSR // the run's current topology (a re-bind replaces it)
	rc     *runCounts
	states []nfsm.State
	emits  []nfsm.Letter
	seed   uint64
	dss    []*dynScratch // per-worker dynamic-path scratch (counts + δ-row memos)
	// emitters[w] lists the nodes of worker w's shard that transmitted
	// this round; the deliver phase walks only their edges instead of
	// rescanning every port of the graph (most rounds of a converging
	// protocol are mostly silent).
	emitters [][]int32
	// Sequential runs back dss and emitters with these, sparing two
	// allocations per run.
	seqDS       [1]*dynScratch
	seqEmitters [1][]int32

	// Scenario and channel hooks (nil on static runs): who is awake,
	// each node's position in the Byzantine list (-1 for honest nodes),
	// the channel model with its counters and per-edge reorder
	// horizons, and the scratch arena holding the channel buffers.
	live     *scenario.Liveness
	byz      []int32
	byzNodes []channel.ByzNode
	model    channel.Model
	chStats  channel.Stats
	horizon  map[uint64]int
	scr      *Scratch

	// Worker pool state (nil/empty when sequential).
	cmds    []chan int // per-worker: round r > 0 computes, -1 delivers
	wg      sync.WaitGroup
	lo, hi  []int
	results []shardResult
	// buckets[w][s] collects the port writes worker w's emitters address
	// to shard s (filled at the end of w's compute phase, applied by
	// worker s's deliver phase). Bucketing keeps the deliver phase at
	// O(emitted edges) total instead of every worker filtering the full
	// emitter edge set. shardOf[u] is the shard owning node u.
	buckets [][][]portWrite
	shardOf []int32
}

// countLive returns how many awake honest nodes are in an output state
// and how many awake honest nodes there are, the termination target
// (Byzantine nodes never reach an output state).
func (e *syncExec) countLive() (outputs, target int) {
	if e.live == nil {
		return countOutputs(e.p.m, e.states), len(e.states)
	}
	for v, q := range e.states {
		if !e.live.Awake(v) || (e.byz != nil && e.byz[v] >= 0) {
			continue
		}
		target++
		if e.p.isOutput(q) {
			outputs++
		}
	}
	return outputs, target
}

// applyBatch applies one mutation batch between rounds: it mutates the
// graph and liveness, re-binds the port layout on topology change
// (carrying every surviving port's letter across the slot renumbering),
// and reboots the reset policy's node set plus every restarted or woken
// node.
func (e *syncExec) applyBatch(b scenario.Batch, g *graph.Graph, reset scenario.ResetPolicy, init []nfsm.State) error {
	topo := false
	var started []int
	for _, m := range b.Muts {
		st, err := e.live.Apply(m)
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
		e.rc.rebind(next, graph.RemapPorts(e.csr, next))
		e.csr = next
	}
	for _, v := range b.ResetSet(reset, g) {
		if e.live.Awake(v) {
			e.states[v] = resetStateOf(e.p.m, init, v)
			e.rc.resetNode(v, e.csr)
		}
	}
	for _, v := range started {
		e.states[v] = resetStateOf(e.p.m, init, v)
		e.rc.resetNode(v, e.csr)
	}
	return nil
}

// portWrite is one routed transmission: set the port at CSR slot `slot`
// of node `u` to letter `l`.
type portWrite struct {
	u, slot int32
	l       int32
}

// startWorkers launches w persistent goroutines, each owning the node
// range [lo[i], hi[i]). The pool amortizes goroutine startup across all
// rounds of the run; stop() tears it down.
func (e *syncExec) startWorkers(w int) (stop func()) {
	n := len(e.states)
	e.cmds = make([]chan int, w)
	e.lo = make([]int, w)
	e.hi = make([]int, w)
	e.results = make([]shardResult, w)
	e.dss = make([]*dynScratch, w)
	e.emitters = make([][]int32, w)
	e.buckets = make([][][]portWrite, w)
	e.shardOf = make([]int32, n)
	for i := 0; i < w; i++ {
		e.lo[i] = i * n / w
		e.hi[i] = (i + 1) * n / w
		for v := e.lo[i]; v < e.hi[i]; v++ {
			e.shardOf[v] = int32(i)
		}
		e.dss[i] = &dynScratch{}
		e.dss[i].init(e.p.MachineCode)
		e.buckets[i] = make([][]portWrite, w)
		e.cmds[i] = make(chan int, 1)
		go func(i int) {
			for c := range e.cmds[i] {
				if c > 0 {
					tx, d, err := e.compute(e.lo[i], e.hi[i], c, i)
					e.results[i] = shardResult{tx: tx, outDelta: d, err: err}
				} else {
					e.deliverBuckets(i)
				}
				e.wg.Done()
			}
		}(i)
	}
	return func() {
		for _, c := range e.cmds {
			close(c)
		}
	}
}

func (e *syncExec) broadcast(code int) {
	e.wg.Add(len(e.cmds))
	for _, c := range e.cmds {
		c <- code
	}
	e.wg.Wait()
}

func (e *syncExec) computePhase(round int) (int64, int, error) {
	if e.cmds == nil {
		return e.compute(0, len(e.states), round, 0)
	}
	e.broadcast(round)
	var tx int64
	var outDelta int
	for i := range e.results {
		if err := e.results[i].err; err != nil {
			return 0, 0, err
		}
		tx += e.results[i].tx
		outDelta += e.results[i].outDelta
	}
	return tx, outDelta, nil
}

func (e *syncExec) deliverPhase() {
	if e.cmds == nil {
		e.deliver()
		return
	}
	e.broadcast(-1)
}

// compute applies δ to every node of [lo, hi): each node observes its
// clamped counts (frozen since the last deliver phase), draws its move
// from the node-indexed coin, and buffers its transmission. Writes touch
// only states[v], emits[v] and the worker's own emitter list, so shards
// never conflict. The δ lookup is specialized per program kind so the
// flat paths run without a function call per node; scenario and channel
// runs take the generic branch, which holds their liveness and
// Byzantine hooks.
func (e *syncExec) compute(lo, hi, round, worker int) (tx int64, outDelta int, err error) {
	p := e.p
	states, emits, seed := e.states, e.emits, e.seed
	mask := p.outMask
	emitters := e.emitters[worker][:0]
	defer func() { e.emitters[worker] = emitters }()

	kind := p.kind
	if e.live != nil {
		kind = progDynamic
	}
	switch kind {
	case progFlatMulti:
		delta, pdim, idx := p.delta, p.pdim, e.rc.idx
		for v := lo; v < hi; v++ {
			q := states[v]
			moves := delta[int(q)*pdim+int(idx[v])]
			if len(moves) == 0 {
				return tx, outDelta, deltaEmptyErr(v, q, round)
			}
			mv := nfsm.PickMove(seed, v, round, moves)
			if mv.Next != q {
				outDelta += int(mask[mv.Next>>6]>>(uint(mv.Next)&63)&1) - int(mask[q>>6]>>(uint(q)&63)&1)
				states[v] = mv.Next
			}
			if mv.Emit != nfsm.NoLetter {
				emits[v] = mv.Emit
				emitters = append(emitters, int32(v))
				tx++
			}
		}
	case progFlatSingle:
		delta, query, raw := p.delta, p.query, e.rc.raw
		nl, b := p.nl, int32(p.b)
		w := p.b + 1
		for v := lo; v < hi; v++ {
			q := states[v]
			c := raw[v*nl+int(query[q])]
			if c > b {
				c = b
			}
			moves := delta[int(q)*w+int(c)]
			if len(moves) == 0 {
				return tx, outDelta, deltaEmptyErr(v, q, round)
			}
			mv := nfsm.PickMove(seed, v, round, moves)
			if mv.Next != q {
				outDelta += int(mask[mv.Next>>6]>>(uint(mv.Next)&63)&1) - int(mask[q>>6]>>(uint(q)&63)&1)
				states[v] = mv.Next
			}
			if mv.Emit != nfsm.NoLetter {
				emits[v] = mv.Emit
				emitters = append(emitters, int32(v))
				tx++
			}
		}
	default:
		ds := e.dss[worker]
		for v := lo; v < hi; v++ {
			if e.live != nil && !e.live.Awake(v) {
				continue
			}
			if e.byz != nil && e.byz[v] >= 0 {
				// Byzantine node: never runs δ (its state stays put),
				// emits whatever its behavior dictates; its traffic
				// rides the channel like any other.
				if l := e.byzNodes[e.byz[v]].Emit(round, p.nl); l != nfsm.NoLetter {
					emits[v] = l
					emitters = append(emitters, int32(v))
					tx++
				}
				continue
			}
			q := states[v]
			moves := e.rc.movesFor(v, q, ds)
			if len(moves) == 0 {
				return tx, outDelta, deltaEmptyErr(v, q, round)
			}
			mv := nfsm.PickMove(seed, v, round, moves)
			if p.isOutputDS(mv.Next, ds) != p.isOutputDS(q, ds) {
				if p.isOutputDS(mv.Next, ds) {
					outDelta++
				} else {
					outDelta--
				}
			}
			states[v] = mv.Next
			if mv.Emit != nfsm.NoLetter {
				e.emits[v] = mv.Emit
				emitters = append(emitters, int32(v))
				tx++
			}
		}
	}
	if e.cmds != nil {
		e.route(worker, emitters)
	}
	return tx, outDelta, nil
}

// route buckets the worker's emitted edges by destination shard, still
// inside the compute phase: worker w walks only its own emitters' edges,
// and the subsequent deliver phase applies only per-shard buckets, so
// the total deliver work stays O(emitted edges) at every worker count.
func (e *syncExec) route(worker int, emitters []int32) {
	csr := e.p.csr
	off, nbr, rev := csr.NbrOff, csr.NbrDat, csr.RevPort
	bk := e.buckets[worker]
	for s := range bk {
		bk[s] = bk[s][:0]
	}
	for _, v := range emitters {
		l := int32(e.emits[v])
		for k := off[v]; k < off[v+1]; k++ {
			u := nbr[k]
			s := e.shardOf[u]
			bk[s] = append(bk[s], portWrite{u: u, slot: off[u] + rev[k], l: l})
		}
	}
}

func deltaEmptyErr(v int, q nfsm.State, round int) error {
	return fmt.Errorf("engine: δ empty at node %d state %d round %d", v, q, round)
}

// deliver is the sequential deliver phase: it walks every emitter's
// edges through the flattened reverse-port table of the run's current
// topology and applies the writes. The body is runCounts.setPort
// unrolled with its indirections hoisted — this is the hottest loop of
// the engine. Ports of every neighbor are link-endpoint memory and
// receive the letter regardless of the neighbor's liveness (a reboot
// clears them anyway).
func (e *syncExec) deliver() {
	csr := e.csr
	rc := e.rc
	off, nbr, rev := csr.NbrOff, csr.NbrDat, csr.RevPort
	portDat, raw, idx, pow := rc.portDat, rc.raw, rc.idx, e.p.pow
	nl, b := e.p.nl, int32(e.p.b)
	for _, lst := range e.emitters {
		for _, v := range lst {
			l := e.emits[v]
			for k := off[v]; k < off[v+1]; k++ {
				u := nbr[k]
				dst := off[u] + rev[k]
				old := portDat[dst]
				if old == l {
					continue
				}
				portDat[dst] = l
				base := int(u) * nl
				io, in := base+int(old), base+int(l)
				raw[io]--
				raw[in]++
				if idx != nil {
					if raw[io] < b {
						idx[u] -= pow[old]
					}
					if raw[in] <= b {
						idx[u] += pow[l]
					}
				}
			}
		}
	}
}

// syncPend is a channel-delayed synchronous delivery: a reordering
// model's extra delay rounds up to whole rounds, and the letter lands
// in the deliver phase of round due (resolving the destination port
// against the topology of that round — a removed edge severs it).
type syncPend struct {
	due      int
	from, to int32
	letter   nfsm.Letter
}

// deliverChannel is the sequential deliver phase of a channel run.
// Deliveries deferred by a reordering model land first, so the round's
// own traffic overwrites stale letters, never the other way around;
// then every per-neighbor copy of the round's traffic expands through
// the model into fates that land now or join the pending list.
func (e *syncExec) deliverChannel(round int, res *SyncResult) {
	csr, rc, s := e.csr, e.rc, e.scr
	if len(s.pend) > 0 {
		keep := s.pend[:0]
		for _, pd := range s.pend {
			if pd.due != round {
				keep = append(keep, pd)
				continue
			}
			if k := portSlot(csr, int(pd.to), int(pd.from)); k >= 0 {
				rc.setPort(int(pd.to), k, pd.letter)
			} else {
				res.Severed++ // edge removed before the due round
			}
		}
		s.pend = keep
	}
	for _, v := range e.emitters[0] {
		l := e.emits[v]
		for k := csr.NbrOff[v]; k < csr.NbrOff[v+1]; k++ {
			u := int(csr.NbrDat[k])
			s.chBuf = channel.Expand(e.model, int(v), round, u, l, e.p.nl, s.chBuf, &e.chStats)
			for _, f := range s.chBuf {
				delay := int(math.Ceil(f.Extra))
				if e.horizon != nil {
					key := uint64(uint32(v))<<32 | uint64(uint32(u))
					if due := round + delay; due < e.horizon[key] {
						res.Reordered++ // an overtake on this edge
					} else {
						e.horizon[key] = due
					}
				}
				if delay == 0 {
					rc.setPort(u, csr.NbrOff[u]+csr.RevPort[k], f.Letter)
				} else {
					s.pend = append(s.pend, syncPend{due: round + delay, from: v, to: int32(u), letter: f.Letter})
				}
			}
		}
	}
}

// deliverBuckets is the sharded deliver phase: worker `shard` applies
// exactly the port writes routed to it during the compute phase. Each
// destination port is written by exactly one worker (ports are owned by
// their destination node), every port is written at most once per round,
// and the count updates commute, so the post-round state is identical
// for every worker count.
func (e *syncExec) deliverBuckets(shard int) {
	rc := e.rc
	portDat, raw, idx, pow := rc.portDat, rc.raw, rc.idx, e.p.pow
	nl, b := e.p.nl, int32(e.p.b)
	for w := range e.buckets {
		for _, d := range e.buckets[w][shard] {
			l := nfsm.Letter(d.l)
			old := portDat[d.slot]
			if old == l {
				continue
			}
			portDat[d.slot] = l
			base := int(d.u) * nl
			io, in := base+int(old), base+int(l)
			raw[io]--
			raw[in]++
			if idx != nil {
				if raw[io] < b {
					idx[d.u] -= pow[old]
				}
				if raw[in] <= b {
					idx[d.u] += pow[l]
				}
			}
		}
	}
}
