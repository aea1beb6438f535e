// Package engine executes nFSM machines on graphs. It provides the two
// environments of the paper:
//
//   - RunSync executes a machine in a locally synchronous environment
//     (properties (S1) and (S2) of Section 3.1, realized as lockstep
//     rounds). This is the environment the Section 4 and 5 protocols are
//     written for.
//
//   - RunAsync executes a machine in the fully asynchronous environment of
//     Section 2: an oblivious adversary chooses every step length L_{v,t}
//     and every delivery delay D_{v,t,u}; deliveries are FIFO per directed
//     edge but ports are overwrite-only (messages can be lost, footnote 4
//     of the paper). The reported run-time follows the paper's measure:
//     elapsed time divided by the largest adversary parameter used before
//     the output configuration was reached.
//
// Both engines draw each node's uniform choice among δ's moves from the
// deterministic coin nfsm.PickMove(seed, node, step, ...), so a protocol,
// graph and seed fully determine the execution.
package engine

import (
	"errors"
	"fmt"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/scenario"
)

// ErrNoConvergence is returned when a run exhausts its round, step or time
// budget before reaching an output configuration.
var ErrNoConvergence = errors.New("engine: no output configuration within budget")

// initialStates resolves the per-node initial state vector: a copy of init
// when provided, otherwise the machine's default input state everywhere.
func initialStates(m nfsm.Machine, n int, init []nfsm.State) ([]nfsm.State, error) {
	states := make([]nfsm.State, n)
	if init == nil {
		q := m.InputState()
		for v := range states {
			states[v] = q
		}
		return states, nil
	}
	if len(init) != n {
		return nil, fmt.Errorf("engine: init vector length %d != n %d", len(init), n)
	}
	for v, q := range init {
		if q < 0 || int(q) >= m.NumStates() {
			return nil, fmt.Errorf("engine: init state %d of node %d out of range", q, v)
		}
		states[v] = q
	}
	return states, nil
}

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

// portTopology precomputes, for every node v and every neighbor index i of
// v, the port index of v at that neighbor — i.e. where v's transmissions
// land. Ports are identified by position in the sorted adjacency list.
type portTopology struct {
	g   *graph.Graph
	rev [][]int // rev[v][i] = port index of v at g.Neighbors(v)[i]
}

func newPortTopology(g *graph.Graph) *portTopology {
	rev := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		rev[v] = make([]int, len(nb))
		for i, u := range nb {
			rev[v][i] = g.PortOf(u, v)
		}
	}
	return &portTopology{g: g, rev: rev}
}

// counter computes clamped count vectors from a node's ports, counting
// only the machine's query letter when it is a single-query machine.
type counter struct {
	m      nfsm.Machine
	single nfsm.SingleQuery // nil when the machine queries all letters
	buf    []nfsm.Count
	// touched lists the letters the previous multi-letter call wrote, so
	// the next call clears only those instead of zeroing the full
	// alphabet buffer (a node's ports can hold at most deg(v) distinct
	// letters, typically far fewer than |Σ| for compiled machines).
	// It is per-call scratch, not cross-round state: every call still
	// recomputes the vector from the ports, so the reference engines
	// built on this counter remain a direct transcription of the model.
	touched []nfsm.Letter
}

func newCounter(m nfsm.Machine) *counter {
	c := &counter{m: m, buf: make([]nfsm.Count, m.NumLetters())}
	if sq, ok := m.(nfsm.SingleQuery); ok {
		c.single = sq
	}
	return c
}

// counts fills the count vector observed by a node in state q whose ports
// hold the given letters, clamped by f_b. The returned slice is reused
// across calls.
func (c *counter) counts(q nfsm.State, ports []nfsm.Letter) []nfsm.Count {
	b := c.m.Bound()
	if c.single != nil {
		ql := c.single.QueryLetter(q)
		n := 0
		for _, l := range ports {
			if l == ql {
				n++
			}
		}
		c.buf[ql] = nfsm.ClampCount(n, b)
		return c.buf
	}
	for _, l := range c.touched {
		c.buf[l] = 0
	}
	c.touched = c.touched[:0]
	for _, l := range ports {
		if l < 0 {
			continue
		}
		if c.buf[l] == 0 {
			c.touched = append(c.touched, l)
		}
		if int(c.buf[l]) < b {
			c.buf[l]++
		}
	}
	return c.buf
}

// countOutputs returns how many nodes currently reside in output states.
func countOutputs(m nfsm.Machine, states []nfsm.State) int {
	n := 0
	for _, q := range states {
		if m.IsOutput(q) {
			n++
		}
	}
	return n
}
