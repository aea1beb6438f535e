package engine

import (
	"stoneage/internal/channel"
	"stoneage/internal/nfsm"
)

// Scratch is a reusable per-execution arena. A run needs per-node and
// per-directed-edge working state — port letters, count aggregates,
// event queue storage, delivery pools, adversary bookkeeping — that is
// identical in shape from run to run; allocating it fresh every time
// dominated the allocation profile of tight run loops (campaign trials,
// benchmarks, parameter sweeps). Passing a Scratch to
// Program.RunSyncReusing / Program.RunAsyncReusing reuses all of it:
// after the first run on a given program shape, steady-state execution
// performs no queue or counter allocations at all.
//
// A Scratch is not safe for concurrent use: give each worker goroutine
// its own (the campaign runner holds one per worker and reuses it
// across every trial the worker executes).
//
// Machine-keyed memos (δ-row and output-set caches for dynamic-fallback
// machines) also live here and survive across runs; they are
// invalidated automatically when the scratch is used with a different
// machine.
type Scratch struct {
	rc runCounts
	ds dynScratch

	// as holds the asynchronous executor's working state — the ladder
	// queue, delivery pools, parking arrays — allocated on first async
	// use so purely synchronous callers pay for none of it (the inline
	// bucket table alone is over a kilobyte).
	as *asyncScratch

	// pk holds the bit-plane backend's plane storage, allocated on
	// first packed use for the same reason.
	pk *packedScratch

	emits    []nfsm.Letter // sync executor's per-round emission buffer
	emitters []int32       // sync executor's sequential emitter list

	// Channel runs only (the reliable path never touches them): the
	// fate expansion buffer both executors grow through channel.Expand
	// or ExpandAt, and the sync executor's channel-delayed deliveries.
	chBuf []channel.Fate
	pend  []syncPend

	lastCode *MachineCode
}

// asyncScratch is the asynchronous executor's reusable working state.
type asyncScratch struct {
	lq ladder
	dp delivPool

	portWriteAt  []float64
	lastDelivery []float64
	stepIndex    []int
	lastStepAt   []float64
	// epochs is the per-node step-event epoch: a crash, or a delivery
	// that voids a parked node's precomputed chain-end event, bumps it.
	epochs []uint32

	// Scenario state: the spare halves of portWriteAt and lastDelivery
	// that a topology re-bind remaps into, and the per-node settling
	// counters.
	pwSpare []float64
	ldSpare []float64
	settle  []uint8

	// Parking state (runs outside scenarios, channel models and the
	// voted tier): parked nodes' pending virtual step, and whether a
	// precomputed chain-end event is in the queue.
	parked      []bool
	virtTime    []float64
	virtIndex   []int
	virtLen     []float64
	pendingReal []bool
	stepBuf     [256]float64

	// Per-node step-length batch cache (StepBatcher adversaries): node
	// v's lengths for steps stepFrom[v]..stepFrom[v]+stepLenBatch-1.
	stepLens []float64
	stepFrom []int

	// walkCap is the per-node adaptive chain-walk window: opened fully
	// once a checkpoint is reached undisturbed, reset to the minimum
	// when a delivery invalidates the node's precomputed chain —
	// re-walks stay cheap on delivery-heavy nodes while undisturbed
	// chains virtualize in large windows.
	walkCap []int32
}

// async returns the lazily allocated asynchronous working state.
func (s *Scratch) async() *asyncScratch {
	if s.as == nil {
		s.as = &asyncScratch{}
	}
	return s.as
}

// packed returns the lazily allocated bit-plane working state.
func (s *Scratch) packed() *packedScratch {
	if s.pk == nil {
		s.pk = &packedScratch{}
	}
	return s.pk
}

// NewScratch returns an empty scratch arena. All storage is grown on
// first use and retained afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// bind points the scratch at a machine, invalidating machine-keyed
// memos if it changes.
func (s *Scratch) bind(c *MachineCode) {
	if s.lastCode == c {
		return
	}
	s.lastCode = c
	s.ds.invalidate()
	s.rc.dynQuery = s.rc.dynQuery[:0]
}

// grow returns a length-n slice reusing buf's storage, every element
// set to fill.
func grow[T any](buf []T, n int, fill T) []T {
	if cap(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = fill
	}
	return buf
}
