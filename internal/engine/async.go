package engine

import (
	"fmt"
	"math"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// stepKey is the tie key of a step event under a TieFree adversary,
// replacing the push-order seq counter the reference engine breaks
// ties with. Parking elides and reorders pushes, so push order is no
// longer available — but under the TieFree contract the only events
// that can share an exact time are steps of constant-step-length
// nodes, and for those the reference's push order is derivable: the
// node with the larger current step length pushed earlier (its
// previous step was earlier), and equal lengths recurse down identical
// chains to the initial pushes, which are in node order. Packing the
// inverted float bits of the length (descending) over the node index
// (ascending) therefore reproduces the reference's tie order exactly.
// The low 20 bits hold the node, so lengths must be distinguishable in
// their top 44 bits and n must stay below 2^20 — both documented in
// TieFree.
// The chain-walk window bounds the lookahead of a single park decision:
// a longer silent chain is virtualized in checkpoint windows (the cap
// branch schedules a real step mid-chain, which is always sound). The
// window adapts per node between these bounds — see
// asyncScratch.walkCap.
const (
	walkCapMin = 16
	walkCapMax = 256
)

func stepKey(l float64, node int32) uint64 {
	return ^math.Float64bits(l)&^uint64(0xFFFFF) | uint64(uint32(node))&0xFFFFF
}

// AsyncConfig parameterizes an asynchronous run.
type AsyncConfig struct {
	// Seed keys the protocol's random choices (the adversary carries its
	// own seed; Section 2 requires the adversary be oblivious to the
	// protocol's coins, which separate seeds guarantee).
	Seed uint64
	// Adversary supplies every step length and delivery delay. Nil
	// selects the Synchronous policy.
	Adversary Adversary
	// MaxSteps aborts the run when the total number of node steps
	// exceeds it; zero selects 1<<24.
	MaxSteps int64
	// Init optionally assigns per-node initial states, as in SyncConfig.
	Init []nfsm.State
	// Observer, when non-nil, is invoked after every node step with the
	// event time, the node, its step index and its new state. Used by
	// analysis instrumentation (e.g. the synchronization-property
	// tests). Setting an observer disables the self-loop parking fast
	// path: every step is then materialized so the observer sees the
	// full stream.
	Observer func(time float64, node, step int, state nfsm.State)
	// Scenario, when non-nil and non-empty, makes the run dynamic: each
	// mutation batch is applied at absolute time Batch.At, before any
	// event scheduled at or after that time. Surviving node and port
	// state (letters, FIFO horizons, write times) is carried across
	// topology re-binds; deliveries in flight on a removed edge are
	// dropped; crashed nodes stop stepping and restarted ones resume
	// from a reboot. The reset policy must be concrete (the protocol
	// layer resolves ResetAuto). Nil or empty scenarios run exactly as
	// static runs; non-empty ones disable the parking and pooled-FIFO
	// fast paths.
	Scenario *scenario.Scenario
	// Channel, when non-nil, subjects every transmission to an
	// unreliable-link model: each per-neighbor copy is expanded through
	// the model into zero or more delivered fates (dropped, duplicated,
	// extra-delayed, corrupted — see package channel). A reordering
	// model voids the per-edge FIFO guarantee (and the pooled-FIFO and
	// parking fast paths); a nil Channel is the unchanged zero-overhead
	// reliable path.
	Channel channel.Model
	// Voted, when non-nil, selects the voted synchronizer tier's
	// engine contract (see voted.go): burst transmissions decoded by a
	// K-of-(2K−1) receipt vote, dead-edge eviction, and per-edge
	// re-pulse backoff. The machine should be a synchro.CompileVoted
	// compilation (the αβ state machine with the voted contract);
	// voted runs disable the parking and pooled-FIFO fast paths and
	// reject scenarios with topological mutations. Nil runs the plain
	// or αβ contract unchanged.
	Voted *VotedConfig
}

// AsyncResult reports a completed asynchronous run.
type AsyncResult struct {
	// Time is the absolute time at which the output configuration was
	// reached, in the adversary's raw scale.
	Time float64
	// TimeUnits is the paper's run-time measure: Time divided by the
	// largest step-length or delay parameter used before completion.
	TimeUnits float64
	// Steps is the total number of node steps executed.
	Steps int64
	// Transmissions counts non-ε transmissions.
	Transmissions int64
	// Lost counts deliveries that overwrote a port value which the
	// destination node had not yet observed in any step — messages the
	// adversary destroyed, as permitted by the model (no buffering).
	// This is pure paper semantics: channel drops and removed-edge
	// drops are counted separately below.
	Lost int64
	// Dropped, Duplicated and Corrupted count the channel model's
	// interventions (zero without one): copies eliminated, extra copies
	// created, letters flipped. Delayed counts copies the model assigned
	// a non-zero extra delay (attempted reorders); Reordered counts
	// deliveries scheduled before an already-scheduled delivery on the
	// same directed edge — the overtakes those attempts actually caused.
	// Under a self-pacing synchronizer Delayed can be large while
	// Reordered stays 0: the per-edge send gap outgrows the extra delay.
	Dropped    int64
	Duplicated int64
	Delayed    int64
	Reordered  int64
	Corrupted  int64
	// Severed counts in-flight deliveries dropped because a scenario
	// mutation removed their edge before arrival (previously conflated
	// with nothing — they vanished uncounted).
	Severed int64
	// Voted-decoder reporting, populated only under AsyncConfig.Voted:
	// Outvoted counts corrupted receipts the vote refused to commit;
	// VotedRejections counts receipts that produced no winner;
	// RePulses counts re-pulse firings (node emissions classified by
	// the machine's re-pulse source states); RePulseSends counts the
	// per-edge re-pulse transmissions actually sent after backoff
	// gating; EvictedEdges lists the evicted edges as (listener,
	// silenced neighbor) pairs in eviction order.
	Outvoted        int64
	VotedRejections int64
	RePulses        int64
	RePulseSends    int64
	EvictedEdges    [][2]int
	// States is the final state of every node.
	States []nfsm.State

	// PerturbedAt lists the absolute times of a dynamic run's mutation
	// batches. Nil for static runs.
	PerturbedAt []float64
	// RecoveryTime is the absolute time from the last perturbation to
	// the final output configuration (0 when nothing was perturbed);
	// RecoveryTimeUnits is the same span in the paper's normalized
	// measure.
	RecoveryTime      float64
	RecoveryTimeUnits float64
	// FinalGraph is the post-mutation topology of a dynamic run — the
	// graph any output validator must be checked against. Nil for
	// static runs.
	FinalGraph *graph.Graph
}

// event is the seed engine's queue entry, kept for the reference oracle
// in async_ref.go (the rewritten executor uses the ladder queue's
// qevent).
type event struct {
	time    float64
	seq     uint64 // FIFO-stable tiebreak for equal times
	node    int
	port    int         // delivery only
	letter  nfsm.Letter // delivery only
	step    bool        // true: node step; false: delivery
	corrupt bool        // delivery only: letter rewritten by the channel
}

// RunAsync executes machine m on graph g in the asynchronous environment
// of Section 2 under the given adversarial policy. Like RunSync it goes
// through the compiled fast path; Compile once and call Program.RunAsync
// to amortize the lowering across runs.
func RunAsync(m nfsm.Machine, g *graph.Graph, cfg AsyncConfig) (*AsyncResult, error) {
	return Compile(m, g).RunAsync(cfg)
}

// RunAsync executes the compiled program asynchronously with a private
// scratch arena. Callers that execute many runs should allocate one
// Scratch per worker and call RunAsyncReusing.
func (p *Program) RunAsync(cfg AsyncConfig) (*AsyncResult, error) {
	return p.RunAsyncReusing(cfg, nil)
}

// RunAsyncReusing executes the compiled program asynchronously. It is
// the only production asynchronous executor: static runs and scenario
// runs share this one event loop. The loop is sequential (the
// adversary's timing makes steps causally dependent), but it shares
// the synchronous executor's representation: flat δ lookups, the CSR
// edge order for ports and the flattened reverse-port table for
// deliveries, and incremental count maintenance in place of per-step
// port rescans.
//
// Events are ordered by the (time, seq) total order in a two-tier
// ladder queue; in-flight deliveries beyond each directed edge's
// earliest outstanding one wait in a pooled per-edge FIFO rather than
// in the queue. Under a TieFree adversary, a node whose current δ row
// is a lone ε self-loop is "parked": its spin steps leave the queue
// entirely and are replayed arithmetically when a delivery next touches
// the node (or when the run ends), consuming exactly the adversary
// parameters and step counts the materialized steps would have — the
// differential and fuzz walls check the executor is bit-identical to
// the reference engines either way.
//
// A non-empty cfg.Scenario adds its hooks to the same loop: each
// mutation batch applies before the first event at or after Batch.At;
// crashed nodes stop stepping (a per-node epoch invalidates their
// pending step event); restarted and woken nodes resume from a reboot
// on a fresh step schedule; Byzantine nodes emit their behavior in
// place of δ; and per-edge state — port letters, last-write times, FIFO
// horizons — is carried across topology re-binds by directed-edge
// identity. Slots renumber at every re-bind, so a scenario with a
// topological mutation addresses its deliveries by sender rather than
// by slot, and a delivery whose edge was removed mid-flight is dropped.
// After a batch, termination also waits until every awake node has
// stepped twice (see settle below).
//
// scr may be nil (a private arena is allocated); reusing one across
// runs makes steady-state execution allocation-free.
func (p *Program) RunAsyncReusing(cfg AsyncConfig, scr *Scratch) (*AsyncResult, error) {
	sc := cfg.Scenario
	dyn := !sc.Empty()
	var g *graph.Graph // the evolving topology of a scenario run
	if dyn {
		if p.g == nil {
			return nil, fmt.Errorf("engine: scenario runs need a graph-bound program (Bind, not BindCSR)")
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

	// Scenario state: the batches still to apply, who is awake, each
	// node's position in the Byzantine list (-1 for honest nodes), and
	// whether deliveries are addressed by sender. The voted decoder's
	// per-slot state (vote rings, stall counters, evicted flags) is
	// keyed by slot, and the eviction sentinel (port letter -1) would be
	// mis-rebuilt by a re-bind's raw-count reconstruction, so voted runs
	// reject topological mutations up front; liveness mutations and
	// resets are supported (a reboot clears the node's decoder slots).
	var (
		batches  []scenario.Batch
		live     *scenario.Liveness
		byz      []int32
		bySender bool
	)
	if dyn {
		batches = sc.Batches
		live = scenario.NewLiveness(n, sc.Asleep)
		if byz, err = byzIndex(sc.Byzantine, n, p.nl); err != nil {
			return nil, err
		}
		for _, b := range batches {
			for _, m := range b.Muts {
				if m.Topological() {
					if cfg.Voted != nil {
						return nil, fmt.Errorf("engine: voted synchronizer does not support topological mutations (batch at %g)", b.At)
					}
					bySender = true
				}
			}
		}
	}

	adv := cfg.Adversary
	if adv == nil {
		adv = Synchronous{}
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1 << 24
	}

	csr := p.csr
	ne := len(csr.NbrDat)
	scr.bind(p.MachineCode)
	rc := &scr.rc
	rc.reset(p, csr)
	ds := &scr.ds
	ds.init(p.MachineCode)
	as := scr.async()

	// portWriteAt[k] is the time of the last write to the port at CSR
	// edge slot k (-1 initially); lastDelivery[k] enforces FIFO on the
	// directed edge at slot k (v → NbrDat[k]). A re-bind remaps both.
	as.portWriteAt = grow(as.portWriteAt, ne, -1)
	as.lastDelivery = grow(as.lastDelivery, ne, 0)
	portWriteAt, lastDelivery := as.portWriteAt, as.lastDelivery

	as.stepIndex = grow(as.stepIndex, n, 0)
	as.lastStepAt = grow(as.lastStepAt, n, 0)
	stepIndex, lastStepAt := as.stepIndex, as.lastStepAt
	// epochs[v] invalidates node v's queued step event when it moves on:
	// a crash, or a delivery that voids a parked node's precomputed
	// chain-end event.
	as.epochs = grow(as.epochs, n, 0)
	epochs := as.epochs

	lq := &as.lq
	lq.reset()
	dp := &as.dp
	dp.reset(ne)

	// model/chStats/usePool: the unreliable-channel axis. The pooled
	// per-edge FIFO stays exact under non-reordering models (every fate
	// has Extra == 0, so the FIFO clamp keeps per-edge enqueue times
	// nondecreasing — duplicates land back-to-back in send order); a
	// reordering model bypasses the pool and pushes every copy straight
	// into the queue.
	model := cfg.Channel
	reorders := model != nil && model.Reorders()
	var chStats channel.Stats

	// Voted tier: the decoder state is per directed-edge slot. Voting
	// decouples deliveries from port writes (a receipt may commit
	// nothing, or commit a letter other than its own), which the
	// pooled-FIFO promotion and the parking replay both assume away,
	// so voted runs materialize every delivery and every step.
	var vs *votedState
	if cfg.Voted != nil {
		vs = newVotedState(cfg.Voted, ne)
	}
	// Scenario runs use neither fast path. A batch crashes, reboots or
	// rewires nodes at its own time, with no delivery to wake a parked
	// node first, so the silent-chain walk behind parking would replay
	// steps the node never took; and the pooled FIFOs are keyed by slot,
	// which a re-bind renumbers and a removed edge empties.
	usePool := !reorders && vs == nil && !dyn

	// Parking is sound only when no skipped step can tie exactly with a
	// delivery (see TieFree); observers must see every step
	// materialized, and the step tie key reserves 20 bits for the node
	// index, so larger networks run fully materialized. Channel models
	// multiply and drop deliveries, which the silent-chain walk cannot
	// anticipate, so channel runs also materialize every step.
	canPark := cfg.Observer == nil && model == nil && n < 1<<20 && vs == nil && !dyn
	if tf, ok := adv.(TieFree); !ok || !tf.TieFreeTimes() {
		canPark = false
	}
	var parked []bool
	var pendingReal []bool
	if canPark {
		as.parked = grow(as.parked, n, false)
		as.virtTime = grow(as.virtTime, n, 0)
		as.virtIndex = grow(as.virtIndex, n, 0)
		as.virtLen = grow(as.virtLen, n, 0)
		as.pendingReal = grow(as.pendingReal, n, false)
		if cap(as.walkCap) < n {
			as.walkCap = make([]int32, n)
		}
		as.walkCap = as.walkCap[:n]
		for v := range as.walkCap {
			as.walkCap[v] = walkCapMin
		}
		parked, pendingReal = as.parked, as.pendingReal
	}
	parkedCount := 0

	// Post-perturbation settling window (the asynchronous analogue of
	// the synchronous engines' two-stable-rounds rule): after a batch,
	// termination additionally requires every awake node to have taken
	// at least two steps, so a configuration that merely has not yet
	// observed the perturbation is not mistaken for terminal. Unlike the
	// synchronous window this is a heuristic — adversarial delays can
	// outlast any fixed step budget — but it closes the common race.
	// settle[v] counts node v's steps since the last batch (capped at
	// 2); lagging counts the awake nodes still below the cap.
	var settle []uint8
	lagging := 0
	if dyn {
		as.settle = grow(as.settle, n, 0)
		settle = as.settle
	}

	batcher, _ := adv.(StepBatcher)
	// stepLen returns StepLength(v, t), batched per node when the
	// adversary supports it: one hash-prefix derivation serves
	// stepLenBatch consecutive steps of a node, and each value is read
	// bit-identically to the per-call sequence the reference engine
	// draws (the function is pure, so reads are free to repeat).
	stepLen := func(v, t int) float64 {
		if batcher == nil {
			return adv.StepLength(v, t)
		}
		idx := t - as.stepFrom[v]
		base := v * stepLenBatch
		if idx < 0 || idx >= stepLenBatch {
			batcher.StepLengths(v, t, as.stepLens[base:base+stepLenBatch])
			as.stepFrom[v] = t
			idx = 0
		}
		return as.stepLens[base+idx]
	}
	if batcher != nil {
		if cap(as.stepLens) < n*stepLenBatch {
			as.stepLens = make([]float64, n*stepLenBatch)
		}
		as.stepLens = as.stepLens[:n*stepLenBatch]
		as.stepFrom = grow(as.stepFrom, n, 0)
		for v := range as.stepFrom {
			as.stepFrom[v] = -2 * stepLenBatch // nothing cached yet
		}
	}

	res := &AsyncResult{States: states, FinalGraph: g}
	// The run terminates when outputs, the number of awake honest nodes
	// in an output state, reaches target, the number of awake honest
	// nodes (Byzantine nodes never reach an output state). A static run
	// counts every node in both.
	var outputs, target int
	countLive := func() {
		outputs, target = 0, 0
		for v := 0; v < n; v++ {
			if (live != nil && !live.Awake(v)) || (byz != nil && byz[v] >= 0) {
				continue
			}
			target++
			if p.isOutputDS(states[v], ds) {
				outputs++
			}
		}
	}
	countLive()
	if !dyn && outputs == target {
		// Static runs check the input configuration before drawing any
		// step length, scenario runs after scheduling the first steps —
		// the order each reference engine fixes.
		return res, nil
	}

	var (
		seq      uint64
		maxParam float64
	)
	timeUnits := func(t float64) float64 {
		if maxParam == 0 {
			return 0
		}
		return t / maxParam
	}
	// finish completes res for a run that converged at time at.
	finish := func(at float64) *AsyncResult {
		res.Time = at
		res.TimeUnits = timeUnits(at)
		res.Dropped, res.Duplicated, res.Delayed, res.Corrupted = chStats.Dropped, chStats.Duplicated, chStats.Delayed, chStats.Corrupted
		res.Outvoted = chStats.Outvoted
		if vs != nil {
			vs.fill(res)
		}
		return res
	}

	// replay advances parked node v through every skipped step strictly
	// before `until`, exactly as the reference engine would have
	// processed them. The node's ports are untouched since it parked
	// (any delivery unparks first), so its evolution is deterministic:
	// singleton silent rows chain until they reach a self-loop, which
	// then spins arithmetically. Each skipped step advances the state,
	// step index and last-step time, counts toward Steps and the
	// budget, and consumes its successor's step length (updating
	// maxParam) — bit-identical to materialized execution.
	// tieKey 0 replays strictly before `until`; a terminating step's
	// own key additionally includes a virtual step landing exactly on
	// `until` whose reference-order position precedes it (its successor
	// is strictly later, so at most one such step).
	replay := func(v int, until float64, tieKey uint64) error {
		vt, vi := as.virtTime[v], as.virtIndex[v]
		lastL := as.virtLen[v] // length of the pending step at vt
		if vt > until || (vt == until && stepKey(lastL, int32(v)) >= tieKey) {
			return nil
		}
		steps := res.Steps
		mp := maxParam
		last := lastStepAt[v]
		cs := states[v]
		for vt < until || (vt == until && stepKey(lastL, int32(v)) < tieKey) {
			nx, kind := rc.silentNext(v, cs, ds)
			if kind == rowSilentSelf {
				// Self-loop: spin to the horizon in one tight loop.
				buf := as.stepBuf[:]
				bi, bn := 0, 0
				for vt < until || (vt == until && stepKey(lastL, int32(v)) < tieKey) {
					last = vt
					steps++
					if steps >= maxSteps {
						res.Steps = steps
						return errBudget(p.m, steps)
					}
					var l float64
					if batcher != nil {
						if bi == bn {
							batcher.StepLengths(v, vi+1, buf)
							bi, bn = 0, len(buf)
						}
						l = buf[bi]
						bi++
					} else {
						l = adv.StepLength(v, vi+1)
					}
					if l <= 0 {
						return errParam("step length", l, v, vi+1)
					}
					if l > mp {
						mp = l
					}
					vt += l
					vi++
					lastL = l
				}
				break
			}
			// Chain hop: one deterministic silent step.
			last = vt
			steps++
			if steps >= maxSteps {
				res.Steps = steps
				return errBudget(p.m, steps)
			}
			var l float64
			if batcher != nil {
				if idx := vi + 1 - as.stepFrom[v]; uint(idx) < stepLenBatch {
					l = as.stepLens[v*stepLenBatch+idx]
				} else {
					l = stepLen(v, vi+1)
				}
			} else {
				l = adv.StepLength(v, vi+1)
			}
			if l <= 0 {
				return errParam("step length", l, v, vi+1)
			}
			if l > mp {
				mp = l
			}
			vt += l
			vi++
			lastL = l
			cs = nx
		}
		as.virtTime[v], as.virtIndex[v] = vt, vi
		as.virtLen[v] = lastL
		states[v] = cs
		res.Steps = steps
		maxParam = mp
		lastStepAt[v] = last
		stepIndex[v] = vi - 1
		return nil
	}

	// schedule decides how node v proceeds from state q with pending
	// step ti at absolute time tt. It walks the deterministic silent
	// chain ahead of the node (ports frozen until the next delivery, so
	// the walk is exact): a self-loop parks the node with no event at
	// all; a branching, transmitting or output-flipping row gets a real
	// event at its precomputed time, with the chain before it left
	// virtual for replay. The walk reads future step lengths but
	// commits nothing — lengths enter maxParam only when replay (or
	// materialized processing) consumes them, exactly when the
	// reference engine would.
	// l0 is the length of the pending step at (ti, tt) — the step tie
	// key the reference engine's push order implies (see stepKey).
	schedule := func(v int, q nfsm.State, ti int, tt float64, l0 float64) {
		if !canPark {
			lq.push(qevent{time: tt, seq: seq, node: int32(v), epoch: epochs[v], step: true})
			seq++
			return
		}
		as.virtTime[v], as.virtIndex[v] = tt, ti
		as.virtLen[v] = l0
		cs := q
		chainCap := int(as.walkCap[v])
		for hop := 0; ; hop++ {
			nx, kind := rc.silentNext(v, cs, ds)
			if kind == rowSilentSelf {
				// Spins until a delivery changes what it observes.
				parked[v] = true
				parkedCount++
				return
			}
			var l float64 // 0 unless the chain continues
			if kind == rowSilentHop && hop < chainCap {
				if batcher == nil {
					l = adv.StepLength(v, ti+1)
				} else if idx := ti + 1 - as.stepFrom[v]; uint(idx) < stepLenBatch {
					l = as.stepLens[v*stepLenBatch+idx]
				} else {
					l = stepLen(v, ti+1)
				}
			}
			if l <= 0 {
				// Real event: a branching/transmitting row, a checkpoint
				// on a long chain, or a non-positive length (the
				// reference engine errors when this step consumes it).
				// Replay reconstructs the virtual steps before it.
				lq.push(qevent{time: tt, seq: stepKey(l0, int32(v)), node: int32(v), epoch: epochs[v], step: true})
				pendingReal[v] = true
				if ti > as.virtIndex[v] {
					// Steps were virtualized ahead of the event. The
					// state alone cannot tell (a silent cycle returns
					// to its start state), so compare the step index.
					parked[v] = true
					parkedCount++
				}
				return
			}
			cs = nx
			tt += l
			ti++
			l0 = l
		}
	}

	// stepAfter draws node v's next step length and schedules that step
	// from time `after`.
	stepAfter := func(v int, after float64) error {
		t := stepIndex[v] + 1
		l := stepLen(v, t)
		if l <= 0 {
			return errParam("step length", l, v, t)
		}
		if l > maxParam {
			maxParam = l
		}
		schedule(v, states[v], t, after+l, l)
		return nil
	}

	// applyBatch applies one scenario batch at its time b.At: liveness
	// and graph mutations, a re-bind carrying per-edge state across the
	// slot renumbering, the reset policy's and the restarted nodes'
	// reboots, and a fresh settling window.
	applyBatch := func(b scenario.Batch) error {
		topo := false
		var started []int
		for _, m := range b.Muts {
			st, err := live.Apply(m)
			if err != nil {
				return err
			}
			started = append(started, st...)
			if m.Kind == graph.MutCrashNode {
				epochs[m.U]++ // invalidate the pending step event
			}
			if err := m.Apply(g); err != nil {
				return err
			}
			topo = topo || m.Topological()
		}
		if topo {
			next := g.CSR()
			remap := graph.RemapPorts(csr, next)
			rc.rebind(next, remap)
			pw := grow(as.pwSpare, len(remap), -1)
			ld := grow(as.ldSpare, len(remap), 0)
			for k, o := range remap {
				if o >= 0 {
					pw[k], ld[k] = portWriteAt[o], lastDelivery[o]
				}
			}
			as.portWriteAt, as.pwSpare = pw, portWriteAt
			as.lastDelivery, as.ldSpare = ld, lastDelivery
			portWriteAt, lastDelivery = pw, ld
			csr = next
		}
		reboot := func(v int) {
			states[v] = resetStateOf(p.m, cfg.Init, v)
			rc.resetNode(v, csr)
			for k := csr.NbrOff[v]; k < csr.NbrOff[v+1]; k++ {
				portWriteAt[k] = -1
			}
			if vs != nil {
				vs.resetSlots(csr.NbrOff[v], csr.NbrOff[v+1])
			}
		}
		for _, v := range b.ResetSet(sc.Reset, g) {
			if live.Awake(v) {
				reboot(v)
			}
		}
		for _, v := range started {
			reboot(v)
		}
		countLive()
		for v := range settle {
			settle[v] = 0
		}
		lagging = live.NumAwake()
		// Rebooted nodes resume stepping from the batch time.
		for _, v := range started {
			if err := stepAfter(v, b.At); err != nil {
				return err
			}
		}
		return nil
	}

	for v := 0; v < n; v++ {
		if live != nil && !live.Awake(v) {
			continue
		}
		if err := stepAfter(v, 0); err != nil {
			return nil, err
		}
	}
	if outputs == target && len(batches) == 0 {
		return res, nil
	}

	nextBatch := 0
	for {
		if nextBatch < len(batches) {
			// A due batch precedes every event scheduled at or after it.
			if at, ok := lq.peekTime(); !ok || at >= batches[nextBatch].At {
				b := batches[nextBatch]
				if err := applyBatch(b); err != nil {
					return nil, err
				}
				nextBatch++
				res.PerturbedAt = append(res.PerturbedAt, b.At)
				if nextBatch == len(batches) && outputs == target && lagging == 0 {
					// Only reachable with no awake nodes left (a batch
					// sets lagging to the awake count): vacuous
					// convergence.
					return finish(b.At), nil
				}
				continue
			}
		}
		e, ok := lq.pop()
		if !ok {
			if parkedCount > 0 {
				// Every remaining event is a parked node's silent
				// self-loop spin: the reference engine keeps spinning
				// them (self-loops cannot produce an output
				// configuration) until the step budget aborts the run.
				return nil, errBudget(p.m, maxSteps)
			}
			return nil, fmt.Errorf("%w: event queue drained", ErrNoConvergence)
		}
		v := int(e.node)
		if !e.step {
			// Delivery: overwrite the destination port. If the previous
			// value was written after the destination's last step, it was
			// never observable — a lost message.
			k := e.aux
			if bySender {
				// Resolve the port in the current snapshot; a removed
				// edge drops its in-flight traffic (counted as Severed,
				// distinct from paper-semantics Lost overwrites and from
				// channel Dropped).
				if k = portSlot(csr, v, int(k)); k < 0 {
					res.Severed++
					continue
				}
			}
			if parkedCount > 0 && parked[v] {
				if err := replay(v, e.time, 0); err != nil {
					return nil, err
				}
			}
			letter, commit := nfsm.Letter(e.letter), true
			if vs != nil {
				// Voted decoding: the receipt enters the port's vote
				// window; only a winning letter touches the port, and a
				// confirming winner touches nothing at all.
				outcome, winner := vs.receive(k, letter, rc.portDat[k])
				if e.corrupt && vs.outvoted(outcome, winner, letter) {
					chStats.Outvoted++
				}
				letter, commit = winner, outcome == voteCommit
			}
			if commit {
				if portWriteAt[k] > lastStepAt[v] {
					res.Lost++
				}
				rc.setPort(v, k, letter)
				portWriteAt[k] = e.time
			}
			if usePool {
				if nx, pending := dp.delivered(k); pending {
					lq.push(qevent{time: nx.time, seq: nx.seq, node: e.node, aux: k, letter: nx.letter})
				}
			}
			if canPark && parked[v] {
				// The write may have changed what the node observes:
				// invalidate the precomputed chain and re-decide from
				// the landed state.
				parked[v] = false
				parkedCount--
				if pendingReal[v] {
					epochs[v]++
					pendingReal[v] = false
				}
				as.walkCap[v] = walkCapMin
				schedule(v, states[v], as.virtIndex[v], as.virtTime[v], as.virtLen[v])
			}
			continue
		}
		if e.epoch != epochs[v] {
			continue // a crash or a mid-chain delivery voided this step
		}
		if canPark {
			if parked[v] {
				if err := replay(v, e.time, e.seq); err != nil {
					return nil, err
				}
				parked[v] = false
				parkedCount--
			}
			pendingReal[v] = false
		}

		t := stepIndex[v] + 1
		q := states[v]
		byzantine := byz != nil && byz[v] >= 0
		var moves []nfsm.Move
		var mv nfsm.Move
		if byzantine {
			// Byzantine node: never runs δ (its state stays put), emits
			// whatever its behavior dictates; the step is still counted
			// and its traffic rides the channel like any other.
			mv = nfsm.Move{Next: q, Emit: sc.Byzantine[byz[v]].Emit(t, p.nl)}
		} else {
			moves = rc.movesFor(v, q, ds)
			if len(moves) == 0 {
				return nil, fmt.Errorf("engine: δ empty at node %d state %d step %d", v, q, t)
			}
			if len(moves) == 1 {
				mv = moves[0]
			} else {
				mv = nfsm.PickMove(cfg.Seed, v, t, moves)
			}
		}
		if mv.Next != q {
			if p.isOutputDS(mv.Next, ds) != p.isOutputDS(q, ds) {
				if p.isOutputDS(mv.Next, ds) {
					outputs++
				} else {
					outputs--
				}
			}
			states[v] = mv.Next
		}
		stepIndex[v] = t
		lastStepAt[v] = e.time
		res.Steps++
		if settle != nil && settle[v] < 2 {
			settle[v]++
			if settle[v] == 2 && lagging > 0 {
				lagging--
			}
		}
		if cfg.Observer != nil {
			cfg.Observer(e.time, v, t, mv.Next)
		}

		if mv.Emit != nfsm.NoLetter {
			// Voted tier: honest emissions burst K copies per edge;
			// re-pulses (emissions from pausing states) advance stall
			// counters and are gated by the per-edge backoff, round
			// messages are never gated. A Byzantine node's traffic is
			// one ungated copy (its receivers' votes and stall counters
			// do the tolerating). The other tiers send one copy, and
			// count a transmission even from a node with no neighbors.
			K, isRP, sent := 1, false, vs == nil
			if vs != nil && !byzantine {
				K = int(vs.k)
				isRP = vs.isRePulse != nil && vs.isRePulse(q)
				if isRP {
					vs.rePulses++
				}
			}
			reliable := [1]channel.Fate{{Letter: mv.Emit}}
			for k := csr.NbrOff[v]; k < csr.NbrOff[v+1]; k++ {
				u := csr.NbrDat[k]
				if isRP {
					send, evictNow := vs.fireEdge(k)
					if evictNow {
						rc.evictPort(v, k)
						res.EvictedEdges = append(res.EvictedEdges, [2]int{v, int(u)})
					}
					if !send {
						continue
					}
				}
				d := adv.Delay(v, t, int(u))
				if d <= 0 {
					return nil, errParam("delay", d, v, t)
				}
				if d > maxParam {
					maxParam = d
				}
				sent = true
				dst := csr.NbrOff[u] + csr.RevPort[k]
				aux := dst
				if bySender {
					aux = int32(v)
				}
				for c := 0; c < K; c++ {
					fates := reliable[:]
					if model != nil {
						// Copy 0 of ExpandAt is Expand's stream.
						scr.chBuf = channel.ExpandAt(model, v, t, int(u), c, mv.Emit, p.nl, scr.chBuf, &chStats)
						fates = scr.chBuf
					}
					for _, f := range fates {
						at := e.time + d + f.Extra
						if reorders {
							// No FIFO clamp: count the overtakes instead.
							if at < lastDelivery[k] {
								res.Reordered++
							} else {
								lastDelivery[k] = at
							}
						} else {
							if at < lastDelivery[k] {
								at = lastDelivery[k] // FIFO per directed edge
							}
							lastDelivery[k] = at
						}
						sq := seq
						seq++
						if !usePool || dp.enqueue(dst, at, sq, int32(f.Letter)) {
							lq.push(qevent{time: at, seq: sq, node: u, aux: aux, letter: int32(f.Letter), corrupt: f.Corrupt})
						}
					}
				}
			}
			if sent {
				res.Transmissions++
			}
		}

		if outputs == target && nextBatch == len(batches) && lagging == 0 {
			if parkedCount > 0 {
				// Flush the parked nodes' skipped steps (all strictly
				// before the terminating event under a TieFree
				// adversary) so States, Steps, maxParam and the budget
				// reflect exactly what the reference engine processed.
				// The terminating step itself is uncounted during the
				// flush: the reference checks termination before the
				// budget, so a run ending exactly on the budget's last
				// step succeeds.
				res.Steps--
				for w := 0; w < n; w++ {
					if parked[w] {
						if err := replay(w, e.time, e.seq); err != nil {
							return nil, err
						}
					}
				}
				res.Steps++
			}
			if len(res.PerturbedAt) > 0 {
				res.RecoveryTime = e.time - res.PerturbedAt[len(res.PerturbedAt)-1]
				res.RecoveryTimeUnits = timeUnits(res.RecoveryTime)
			}
			return finish(e.time), nil
		}
		if res.Steps >= maxSteps {
			return nil, errBudget(p.m, res.Steps)
		}
		if canPark && len(moves) == 1 && mv.Emit == nfsm.NoLetter {
			// A materialized silent step is a checkpoint reached
			// undisturbed: open the node's walk window fully (it closes
			// again on the next delivery invalidation, keeping re-walks
			// cheap where deliveries are frequent).
			as.walkCap[v] = walkCapMax
		}
		if err := stepAfter(v, e.time); err != nil {
			return nil, err
		}
	}
}

// errBudget reports a run that exhausted its step budget.
func errBudget(m nfsm.Machine, steps int64) error {
	return fmt.Errorf("%w: %s after %d steps", ErrNoConvergence, machineName(m), steps)
}

// errParam reports a non-positive adversary parameter — a step length
// or a delay — drawn for node v's step t.
func errParam(kind string, x float64, v, t int) error {
	return fmt.Errorf("engine: adversary returned non-positive %s %g for node %d step %d", kind, x, v, t)
}
