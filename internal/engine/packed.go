package engine

import (
	"fmt"
	"math/bits"
	"sync"

	"stoneage/internal/nfsm"
)

// This file is the bit-plane synchronous backend. The flat executor
// spends a word per node state and a word per directed-edge port; at
// n = 10⁶ that layout is bandwidth-bound long before it is
// compute-bound. The paper's protocols are constant-space nFSMs — MIS
// has 3 states, counters clamp at b ≤ 3 — so the packed backend stores
// the whole mutable run state as structure-of-arrays bit-planes, 64
// nodes per machine word:
//
//   - ⌈log₂|Q|⌉ state planes,
//   - ⌈log₂|Σ|⌉ last-emission planes (every out-port of node v holds
//     v's last non-ε emission, so the 2m per-edge port array of the
//     flat layout collapses to a per-node letter),
//   - per letter, ⌈log₂(Δ+1)⌉ exact-count planes (Δ = max degree),
//     maintained by ripple-carry single-lane increments, with the
//     clamped value derived word-parallel by threshold masks,
//   - one stability plane scheduling the sparse tail of convergence:
//     a node whose next evaluation is provably a lone silent self-loop
//     is skipped until a delivery changes its counts, and an
//     all-stable word costs one load per round.
//
// The backend is bit-identical to the flat executor at every worker
// count: nfsm.PickMove is a stateless hash of (seed, node, round), the
// round structure (compute → deliver → observe → converge-check) is
// mirrored exactly, and skipping a stable node elides a provable
// no-op. TestDifferentialPackedSync and the packed arm of
// FuzzDifferentialSync enforce this.

// Backend names accepted by SyncConfig.Backend.
const (
	// BackendFlat forces the word-per-node flat executor.
	BackendFlat = "flat"
	// BackendPacked forces the bit-plane executor; it errors on
	// machines that are not packed-eligible and on scenario or channel
	// runs (those stay flat — see DESIGN.md).
	BackendPacked = "packed"
)

// packedAutoThreshold is the node count at which an empty
// SyncConfig.Backend auto-selects the packed backend for an eligible
// machine. Below it the flat executor's per-node simplicity wins;
// above it the plane layout's footprint (a few bytes per node) does.
const packedAutoThreshold = 1 << 16

// maxPackedB is the largest one-two-many bound the word-parallel
// threshold clamp covers (count ∈ {0, 1, 2, ≥3} in two bit-planes).
const maxPackedB = 3

// packedCode is the packed lowering of a MachineCode: plane widths and
// the settled-row bitset the stability scheduler tests against. Built
// lazily once per MachineCode, so the protocol registry's compiled-
// machine cache shares one packedCode process-wide.
type packedCode struct {
	ok bool
	wQ int // state plane count, ⌈log₂ nq⌉
	wE int // last-emission plane count, ⌈log₂ nl⌉
	// settled is a bitset over δ-table entries: entry e is set when its
	// row is a lone silent self-loop, i.e. evaluating it changes
	// nothing. A node whose upcoming (state, clamped counts) maps to a
	// settled entry is skipped until a delivery disturbs its counts.
	settled []uint64
}

// packedCode returns the lazily built packed lowering.
func (c *MachineCode) packedCode() *packedCode {
	c.packOnce.Do(func() { c.pack = buildPackedCode(c) })
	return c.pack
}

// PackedEligible reports whether the machine can run on the bit-plane
// backend: a flat-tabulated parallel machine with b ≤ 3 and state and
// letter spaces that fit the plane encodings. All of the paper's
// flat-compiled protocols qualify; dynamic-fallback machines (the
// synchro compilers, the coloring protocol's untabulatable domain) do
// not and stay on the flat executor.
func (c *MachineCode) PackedEligible() bool { return c.packedCode().ok }

func buildPackedCode(c *MachineCode) *packedCode {
	pc := &packedCode{}
	if (c.kind != progFlatSingle && c.kind != progFlatMulti) || !c.parallel {
		return pc
	}
	if c.b < 1 || c.b > maxPackedB || c.nq < 1 || c.nq > 1<<15 || c.nl < 1 || c.nl > 1<<15 {
		return pc
	}
	pc.wQ = planeWidth(c.nq)
	pc.wE = planeWidth(c.nl)
	span := c.b + 1
	if c.kind == progFlatMulti {
		span = c.pdim
	}
	pc.settled = make([]uint64, (len(c.delta)+63)/64)
	for e, row := range c.delta {
		q := nfsm.State(e / span)
		if len(row) == 1 && row[0].Emit == nfsm.NoLetter && row[0].Next == q {
			pc.settled[e>>6] |= 1 << (uint(e) & 63)
		}
	}
	pc.ok = true
	return pc
}

// planeWidth returns the number of bit-planes needed for values in
// [0, k).
func planeWidth(k int) int {
	if k <= 1 {
		return 1
	}
	return bits.Len(uint(k - 1))
}

// packedEmit records one changed emission for count routing: node v's
// last-emission letter moved old → nw, so every neighbor's count pair
// must be adjusted.
type packedEmit struct {
	v       int32
	old, nw int16
}

// countWrite is a packedEmit routed to the destination node's word
// shard (the packed analogue of portWrite).
type countWrite struct {
	u       int32
	old, nw int16
}

// packedScratch is the reusable bit-plane run state. All planes live in
// one backing slice so the footprint is a single allocation and easy to
// account (footprintBytes, guarded by TestPackedFootprint).
type packedScratch struct {
	nw int // words per plane, ⌈n/64⌉
	nl int
	wQ int
	wE int
	wC int // count planes per letter, ⌈log₂(Δ+1)⌉ for the bound CSR

	planeBuf []uint64
	stP      [][]uint64 // state planes
	leP      [][]uint64 // last-emission planes
	cnt      [][]uint64 // count planes; letter l plane j at l*wC+j
	stable   []uint64
	tail     uint64 // valid-lane mask of the last word

	emits    []packedEmit // sequential emitter buffer
	cw0, cw1 []uint64     // sequential clamped-count word buffers (per letter)
}

// footprintBytes reports the bytes the packed run state retains — the
// bytes-per-node regression guard reads it.
func (ps *packedScratch) footprintBytes() int {
	return 8 * (cap(ps.planeBuf) + cap(ps.cw0) + cap(ps.cw1) + cap(ps.emits))
}

// reset (re)initializes the planes for a run of p on its bound CSR with
// the given initial states, reusing the backing storage.
func (ps *packedScratch) reset(p *Program, pc *packedCode, states []nfsm.State) {
	csr := p.csr
	n := csr.N()
	nw := (n + 63) / 64
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := int(csr.NbrOff[v+1] - csr.NbrOff[v]); d > maxDeg {
			maxDeg = d
		}
	}
	wC := bits.Len(uint(maxDeg))
	if wC < 1 {
		wC = 1
	}
	ps.nw, ps.nl, ps.wQ, ps.wE, ps.wC = nw, p.nl, pc.wQ, pc.wE, wC

	planes := pc.wQ + pc.wE + p.nl*wC + 1
	need := planes * nw
	if cap(ps.planeBuf) < need {
		ps.planeBuf = make([]uint64, need)
	}
	buf := ps.planeBuf[:need]
	for i := range buf {
		buf[i] = 0
	}
	slice := func(k int) [][]uint64 {
		out := make([][]uint64, k)
		for i := range out {
			out[i] = buf[:nw:nw]
			buf = buf[nw:]
		}
		return out
	}
	ps.stP = slice(pc.wQ)
	ps.leP = slice(pc.wE)
	ps.cnt = slice(p.nl * wC)
	ps.stable = buf[:nw:nw]

	ps.tail = ^uint64(0)
	if r := n & 63; r != 0 {
		ps.tail = 1<<uint(r) - 1
	}
	if nw == 0 {
		ps.tail = 0
	}

	for v, q := range states {
		w, bit := v>>6, uint64(1)<<(uint(v)&63)
		for j := 0; j < pc.wQ; j++ {
			if int(q)>>j&1 == 1 {
				ps.stP[j][w] |= bit
			}
		}
	}
	// Every port starts holding the initial letter: last-emission planes
	// broadcast it, and each node's count block is deg(v) at that letter.
	init := int(p.initial)
	for j := 0; j < pc.wE; j++ {
		if init>>j&1 == 1 {
			pl := ps.leP[j]
			for w := range pl {
				pl[w] = ^uint64(0)
			}
		}
	}
	for v := 0; v < n; v++ {
		deg := int(csr.NbrOff[v+1] - csr.NbrOff[v])
		if deg == 0 {
			continue
		}
		w, bit := v>>6, uint64(1)<<(uint(v)&63)
		for j := 0; j < wC; j++ {
			if deg>>j&1 == 1 {
				ps.cnt[init*wC+j][w] |= bit
			}
		}
	}

	if cap(ps.cw0) < p.nl {
		ps.cw0 = make([]uint64, p.nl)
		ps.cw1 = make([]uint64, p.nl)
	}
	ps.cw0, ps.cw1 = ps.cw0[:p.nl], ps.cw1[:p.nl]
}

// countInc adds one to node u's count of letter l (single-lane
// ripple-carry across the letter's planes).
func (ps *packedScratch) countInc(l int, u int32) {
	w, carry := int(u>>6), uint64(1)<<(uint(u)&63)
	base := l * ps.wC
	for j := 0; j < ps.wC && carry != 0; j++ {
		pl := ps.cnt[base+j]
		old := pl[w]
		pl[w] = old ^ carry
		carry &= old
	}
}

// countDec subtracts one from node u's count of letter l.
func (ps *packedScratch) countDec(l int, u int32) {
	w, borrow := int(u>>6), uint64(1)<<(uint(u)&63)
	base := l * ps.wC
	for j := 0; j < ps.wC && borrow != 0; j++ {
		pl := ps.cnt[base+j]
		old := pl[w]
		pl[w] = old ^ borrow
		borrow &^= old
	}
}

// decodeStates gathers the state planes back into a state vector.
func (ps *packedScratch) decodeStates(states []nfsm.State) {
	for v := range states {
		w, i := v>>6, uint(v)&63
		q := 0
		for j := 0; j < ps.wQ; j++ {
			q |= int(ps.stP[j][w]>>i&1) << j
		}
		states[v] = nfsm.State(q)
	}
}

// packedShardResult carries one worker's per-round aggregates.
type packedShardResult struct {
	tx       int64
	outDelta int
	live     bool
	err      error
}

// packedExec owns a packed execution's buffers and optional worker
// pool. The sharding is word-aligned: a worker owns whole plane words,
// so two workers never read-modify-write the same word in the compute
// phase, and the deliver phase routes count updates to the shard owning
// the destination word — the same ownership discipline as syncExec,
// lifted from nodes to 64-node words.
type packedExec struct {
	p    *Program
	pc   *packedCode
	ps   *packedScratch
	seed uint64

	emitters [][]packedEmit // per-worker changed-emission lists
	cw0, cw1 [][]uint64     // per-worker per-letter clamped-count words

	// Worker pool state (nil/empty when sequential).
	cmds     []chan int
	wg       sync.WaitGroup
	loW, hiW []int
	results  []packedShardResult
	buckets  [][][]countWrite
	shardOfW []int32
}

func (e *packedExec) startWorkers(workers int) (stop func()) {
	nw := e.ps.nw
	nl := e.ps.nl
	e.cmds = make([]chan int, workers)
	e.loW = make([]int, workers)
	e.hiW = make([]int, workers)
	e.results = make([]packedShardResult, workers)
	e.emitters = make([][]packedEmit, workers)
	e.cw0 = make([][]uint64, workers)
	e.cw1 = make([][]uint64, workers)
	e.buckets = make([][][]countWrite, workers)
	e.shardOfW = make([]int32, nw)
	for i := 0; i < workers; i++ {
		e.loW[i] = i * nw / workers
		e.hiW[i] = (i + 1) * nw / workers
		for w := e.loW[i]; w < e.hiW[i]; w++ {
			e.shardOfW[w] = int32(i)
		}
		e.cw0[i] = make([]uint64, nl)
		e.cw1[i] = make([]uint64, nl)
		e.buckets[i] = make([][]countWrite, workers)
		e.cmds[i] = make(chan int, 1)
		go func(i int) {
			for c := range e.cmds[i] {
				if c > 0 {
					tx, d, live, err := e.compute(e.loW[i], e.hiW[i], c, i)
					e.results[i] = packedShardResult{tx: tx, outDelta: d, live: live, err: err}
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

func (e *packedExec) broadcast(code int) {
	e.wg.Add(len(e.cmds))
	for _, c := range e.cmds {
		c <- code
	}
	e.wg.Wait()
}

func (e *packedExec) computePhase(round int) (int64, int, bool, error) {
	if e.cmds == nil {
		return e.compute(0, e.ps.nw, round, 0)
	}
	e.broadcast(round)
	var tx int64
	var outDelta int
	var live bool
	for i := range e.results {
		if err := e.results[i].err; err != nil {
			return 0, 0, false, err
		}
		tx += e.results[i].tx
		outDelta += e.results[i].outDelta
		live = live || e.results[i].live
	}
	return tx, outDelta, live, nil
}

func (e *packedExec) deliverPhase() {
	if e.cmds == nil {
		e.deliver()
		return
	}
	e.broadcast(-1)
}

// compute evaluates every live node of the word range [loW, hiW). Per
// live word it first derives, word-parallel, the clamped count of every
// letter for all 64 lanes via threshold masks over the count planes
// (ge1 = any plane set; ge2 = any plane ≥ 1 set; ge3 = any plane ≥ 2
// set, or planes 1 and 0 both set), then walks the live lanes: gather
// state bits, look up the δ row — the same p.delta rows and the same
// nfsm.PickMove coin as the flat executor, so the drawn move is
// bit-identical — apply the state change to the planes, and record a
// changed emission for the deliver phase. Finally the node's upcoming
// observation is tested against the settled bitset (counts are frozen
// during compute, so the count half of the observation is current):
// settled nodes set their stability bit and are skipped until a
// delivery disturbs their counts.
func (e *packedExec) compute(loW, hiW, round, worker int) (tx int64, outDelta int, live bool, err error) {
	p, pc, ps := e.p, e.pc, e.ps
	seed := e.seed
	mask := p.outMask
	emitters := e.emitters[worker][:0]
	defer func() { e.emitters[worker] = emitters }()
	c0, c1 := e.cw0[worker], e.cw1[worker]
	nl, b := ps.nl, p.b
	wC, wQ, wE := ps.wC, ps.wQ, ps.wE
	single := p.kind == progFlatSingle
	span := b + 1

	for w := loW; w < hiW; w++ {
		act := ^ps.stable[w]
		if w == ps.nw-1 {
			act &= ps.tail
		}
		if act == 0 {
			continue
		}
		live = true
		// Word-parallel clamped counts for every letter.
		for l := 0; l < nl; l++ {
			base := l * wC
			ge1 := ps.cnt[base][w]
			var ge2 uint64
			for j := 1; j < wC; j++ {
				pl := ps.cnt[base+j][w]
				ge1 |= pl
				ge2 |= pl
			}
			switch b {
			case 1:
				c0[l] = ge1
			case 2:
				c0[l] = ge1 ^ ge2
				c1[l] = ge2
			default: // b == 3
				var hi uint64
				for j := 2; j < wC; j++ {
					hi |= ps.cnt[base+j][w]
				}
				ge3 := hi
				if wC >= 2 {
					ge3 |= ps.cnt[base+1][w] & ps.cnt[base][w]
				}
				c0[l] = (ge1 ^ ge2) | ge3
				c1[l] = ge2
			}
		}
		for a := act; a != 0; a &= a - 1 {
			i := uint(bits.TrailingZeros64(a))
			v := w<<6 | int(i)
			bit := uint64(1) << i
			q := 0
			for j := 0; j < wQ; j++ {
				q |= int(ps.stP[j][w]>>i&1) << j
			}
			var eIdx int
			if single {
				l := int(p.query[q])
				cc := int(c0[l] >> i & 1)
				if b >= 2 {
					cc |= int(c1[l]>>i&1) << 1
				}
				eIdx = q*span + cc
			} else {
				idx := int32(0)
				for l := 0; l < nl; l++ {
					cc := int32(c0[l] >> i & 1)
					if b >= 2 {
						cc |= int32(c1[l]>>i&1) << 1
					}
					idx += cc * p.pow[l]
				}
				eIdx = q*p.pdim + int(idx)
			}
			row := p.delta[eIdx]
			if len(row) == 0 {
				return tx, outDelta, live, deltaEmptyErr(v, nfsm.State(q), round)
			}
			mv := nfsm.PickMove(seed, v, round, row)
			nq2 := int(mv.Next)
			if nq2 != q {
				outDelta += int(mask[nq2>>6]>>(uint(nq2)&63)&1) - int(mask[q>>6]>>(uint(q)&63)&1)
				for j := 0; j < wQ; j++ {
					if nq2>>j&1 == 1 {
						ps.stP[j][w] |= bit
					} else {
						ps.stP[j][w] &^= bit
					}
				}
			}
			if mv.Emit != nfsm.NoLetter {
				tx++
				le := 0
				for j := 0; j < wE; j++ {
					le |= int(ps.leP[j][w]>>i&1) << j
				}
				if int(mv.Emit) != le {
					for j := 0; j < wE; j++ {
						if int(mv.Emit)>>j&1 == 1 {
							ps.leP[j][w] |= bit
						} else {
							ps.leP[j][w] &^= bit
						}
					}
					emitters = append(emitters, packedEmit{v: int32(v), old: int16(le), nw: int16(mv.Emit)})
				}
			}
			e2 := eIdx
			if nq2 != q {
				if single {
					l := int(p.query[nq2])
					cc := int(c0[l] >> i & 1)
					if b >= 2 {
						cc |= int(c1[l]>>i&1) << 1
					}
					e2 = nq2*span + cc
				} else {
					e2 += (nq2 - q) * p.pdim
				}
			}
			if pc.settled[e2>>6]>>(uint(e2)&63)&1 == 1 {
				ps.stable[w] |= bit
			}
		}
	}
	if e.cmds != nil {
		e.route(worker, emitters)
	}
	return tx, outDelta, live, nil
}

// route buckets the worker's changed emissions by the destination
// node's word shard, still inside the compute phase.
func (e *packedExec) route(worker int, emitters []packedEmit) {
	csr := e.p.csr
	off, nbr := csr.NbrOff, csr.NbrDat
	bk := e.buckets[worker]
	for s := range bk {
		bk[s] = bk[s][:0]
	}
	for _, em := range emitters {
		for k := off[em.v]; k < off[em.v+1]; k++ {
			u := nbr[k]
			s := e.shardOfW[u>>6]
			bk[s] = append(bk[s], countWrite{u: u, old: em.old, nw: em.nw})
		}
	}
}

// deliver is the sequential deliver phase: every changed emission moves
// one unit of every neighbor's count from the old letter to the new one
// and wakes the neighbor. The ±1 plane updates are exact, so any
// application order yields the same planes — which is what makes the
// sharded variant bit-identical.
func (e *packedExec) deliver() {
	csr := e.p.csr
	off, nbr := csr.NbrOff, csr.NbrDat
	ps := e.ps
	for _, lst := range e.emitters {
		for _, em := range lst {
			for k := off[em.v]; k < off[em.v+1]; k++ {
				u := nbr[k]
				ps.countDec(int(em.old), u)
				ps.countInc(int(em.nw), u)
				ps.stable[u>>6] &^= 1 << (uint(u) & 63)
			}
		}
	}
}

// deliverBuckets applies exactly the count updates routed to this
// worker's words. Increments and decrements commute and the stability
// clear is idempotent, so the post-round planes are identical at every
// worker count.
func (e *packedExec) deliverBuckets(shard int) {
	ps := e.ps
	for w := range e.buckets {
		for _, d := range e.buckets[w][shard] {
			ps.countDec(int(d.old), d.u)
			ps.countInc(int(d.nw), d.u)
			ps.stable[d.u>>6] &^= 1 << (uint(d.u) & 63)
		}
	}
}

// runSyncPacked executes the program on the bit-plane backend. The
// round loop mirrors RunSyncReusing's flat loop statement for
// statement (compute → deliver → observe → converge-check), with one
// addition: when a round evaluates no node at all, the configuration is
// frozen forever (stable nodes never change their counts or states), so
// a run that cannot converge fails fast instead of spinning out the
// round budget — unless an Observer is attached, which contractually
// sees every round.
func (p *Program) runSyncPacked(cfg SyncConfig, scr *Scratch) (*SyncResult, error) {
	pc := p.packedCode()
	if !pc.ok {
		return nil, fmt.Errorf("engine: machine %s is not packed-eligible (flat-tabulated, b ≤ %d required)", machineName(p.m), maxPackedB)
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
	ps := scr.packed()
	ps.reset(p, pc, states)

	res := &SyncResult{States: states}
	outputs := countOutputs(p.m, states)
	if outputs == n {
		return res, nil
	}

	workers := shardWorkers(cfg.Workers, n, ps.nw)

	exec := &packedExec{p: p, pc: pc, ps: ps, seed: cfg.Seed}
	if workers > 1 {
		stop := exec.startWorkers(workers)
		defer stop()
	} else {
		exec.emitters = [][]packedEmit{ps.emits[:0]}
		exec.cw0 = [][]uint64{ps.cw0}
		exec.cw1 = [][]uint64{ps.cw1}
		defer func() { ps.emits = exec.emitters[0][:0] }()
	}

	for round := 1; round <= maxRounds; round++ {
		tx, outDelta, liveRound, err := exec.computePhase(round)
		if err != nil {
			return nil, err
		}
		res.Transmissions += tx
		outputs += outDelta
		exec.deliverPhase()
		if cfg.Observer != nil {
			ps.decodeStates(states)
			cfg.Observer(round, states)
		}
		if outputs == n {
			res.Rounds = round
			ps.decodeStates(states)
			return res, nil
		}
		if !liveRound && cfg.Observer == nil {
			break
		}
	}
	return nil, fmt.Errorf("%w: %s after %d rounds", ErrNoConvergence, machineName(p.m), maxRounds)
}
