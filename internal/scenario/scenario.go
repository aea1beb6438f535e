// Package scenario makes topology change a first-class execution axis:
// a Scenario is a timed schedule of graph mutations (edge churn, node
// crashes and restarts, staggered wake-up) plus the reset discipline the
// engines apply to perturbed nodes. The paper motivates nFSMs with
// networks that are "highly dynamic and error-prone"; a Scenario is the
// executable form of that error-proneness.
//
// Scenarios are consumed by every engine entry point
// (engine.SyncConfig.Scenario / engine.AsyncConfig.Scenario), scheduled
// between rounds by the synchronous engines and at absolute times by the
// asynchronous ones, and swept as a campaign axis (campaign.Spec
// .Scenarios) through the generator Defs in this package.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
)

// ResetPolicy selects which awake nodes are reset to the machine's input
// state (with their ports cleared to the initial letter) when a mutation
// batch is applied. Restarted and woken nodes are always reset — a
// reboot is intrinsically a reset — independent of the policy.
type ResetPolicy uint8

const (
	// ResetAuto defers the choice to the protocol layer: protocols with
	// the SelfStabilizing capability run under ResetNone (they recover
	// from arbitrary perturbed configurations by construction), every
	// other protocol under ResetAll (a global restart is the one reset
	// that provably re-converges a terminating protocol on the new
	// graph). The engines reject ResetAuto — it must be resolved first.
	ResetAuto ResetPolicy = iota
	// ResetNone resets nothing beyond the intrinsic restart/wake resets.
	ResetNone
	// ResetTouched resets the nodes the batch's mutations touch: the
	// endpoints of added/removed edges and the restarted/woken nodes.
	ResetTouched
	// ResetNeighborhood resets the touched nodes and all their
	// neighbors in the post-mutation graph.
	ResetNeighborhood
	// ResetAll resets every awake node: a global protocol restart on
	// the new topology.
	ResetAll
)

var resetNames = map[ResetPolicy]string{
	ResetAuto:         "auto",
	ResetNone:         "none",
	ResetTouched:      "touched",
	ResetNeighborhood: "neighborhood",
	ResetAll:          "all",
}

// String names the policy.
func (p ResetPolicy) String() string {
	if s, ok := resetNames[p]; ok {
		return s
	}
	return fmt.Sprintf("reset(%d)", uint8(p))
}

// ParseReset resolves a policy name; the empty string is ResetAuto.
func ParseReset(s string) (ResetPolicy, error) {
	if s == "" {
		return ResetAuto, nil
	}
	for p, name := range resetNames {
		if s == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown reset policy %q (want auto, none, touched, neighborhood or all)", s)
}

// Batch is one mutation event: every mutation in Muts is applied
// atomically. The synchronous engines apply a batch after round
// int(At) completes (At = 0: before round 1); the asynchronous engines
// apply it at absolute time At, before any event scheduled at or after
// that time.
type Batch struct {
	At   float64          `json:"at"`
	Muts []graph.Mutation `json:"muts"`
}

// ResetSet returns the nodes the batch resets under policy p, given the
// post-mutation graph. The engines intersect it with the awake set and
// union the intrinsically reset restarted/woken nodes.
func (b Batch) ResetSet(p ResetPolicy, g *graph.Graph) []int {
	switch p {
	case ResetNone:
		return nil
	case ResetAll:
		all := make([]int, g.N())
		for v := range all {
			all[v] = v
		}
		return all
	}
	mark := make(map[int]bool)
	for _, m := range b.Muts {
		for _, v := range m.Touches() {
			mark[v] = true
		}
	}
	if p == ResetNeighborhood {
		// Collect neighbors before extending the set, so the hull stays
		// one hop.
		var hull []int
		for v := range mark {
			hull = append(hull, g.Neighbors(v)...)
		}
		for _, u := range hull {
			mark[u] = true
		}
	}
	out := make([]int, 0, len(mark))
	for v := range mark {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Scenario is a full dynamic-network schedule for one run.
type Scenario struct {
	// Name labels the scenario in results and error messages.
	Name string `json:"name,omitempty"`
	// Asleep lists the nodes that have not started at round 0: they
	// hold the input state, take no steps and transmit nothing until a
	// MutWakeNode mutation wakes them. Output-configuration detection
	// ignores non-awake nodes.
	Asleep []int `json:"asleep,omitempty"`
	// Reset is the per-batch reset discipline. The engines require a
	// concrete policy; ResetAuto is resolved by the protocol layer
	// against the protocol's SelfStabilizing capability.
	Reset ResetPolicy `json:"reset,omitempty"`
	// Batches is the mutation schedule, sorted by non-decreasing At.
	Batches []Batch `json:"batches"`
	// Byzantine lists faulty nodes and their wire behaviors: such a node
	// never executes its machine, emits its behavior's letter at every
	// step, and is excluded from output detection and validation (see
	// channel.ByzNode). Only scenario runs host Byzantine nodes, so a
	// scenario with them is never Empty.
	Byzantine []channel.ByzNode `json:"byzantine,omitempty"`
}

// Empty reports whether the scenario perturbs nothing; engines route
// empty (or nil) scenarios through the unchanged static execution path.
func (s *Scenario) Empty() bool {
	return s == nil || (len(s.Batches) == 0 && len(s.Asleep) == 0 && len(s.Byzantine) == 0)
}

// LastAt returns the time of the final batch (0 when there is none).
func (s *Scenario) LastAt() float64 {
	if len(s.Batches) == 0 {
		return 0
	}
	return s.Batches[len(s.Batches)-1].At
}

// WithReset returns a shallow copy with the reset policy replaced; used
// by the protocol layer to resolve ResetAuto without mutating a shared
// scenario.
func (s *Scenario) WithReset(p ResetPolicy) *Scenario {
	c := *s
	c.Reset = p
	return &c
}

// Validate dry-runs the scenario against a copy of g: batch times
// finite, non-negative and non-decreasing, asleep nodes in range and
// duplicate-free, and every mutation applicable in sequence (edges
// exist when removed, nodes alive when crashed, asleep when woken, and
// so on). A scenario that validates here is exactly one the engines
// will execute without a mutation error.
func (s *Scenario) Validate(g *graph.Graph) error {
	if s == nil {
		return nil
	}
	n := g.N()
	status := make([]liveStatus, n)
	seen := make(map[int]bool, len(s.Asleep))
	for _, v := range s.Asleep {
		if v < 0 || v >= n {
			return fmt.Errorf("scenario %s: asleep node %d out of range [0,%d)", s.Name, v, n)
		}
		if seen[v] {
			return fmt.Errorf("scenario %s: duplicate asleep node %d", s.Name, v)
		}
		seen[v] = true
		status[v] = statusAsleep
	}
	byz := make(map[int]bool, len(s.Byzantine))
	for _, b := range s.Byzantine {
		if b.Node < 0 || b.Node >= n {
			return fmt.Errorf("scenario %s: byzantine node %d out of range [0,%d)", s.Name, b.Node, n)
		}
		if byz[b.Node] {
			return fmt.Errorf("scenario %s: duplicate byzantine node %d", s.Name, b.Node)
		}
		byz[b.Node] = true
		// Alphabet-dependent checks (stuck letters in range) happen in
		// the engines, which know the protocol's alphabet size.
		if b.Behavior != channel.BehaviorSilent && b.Behavior != channel.BehaviorStuck && b.Behavior != channel.BehaviorBabble {
			return fmt.Errorf("scenario %s: byzantine node %d has unknown behavior %q", s.Name, b.Node, b.Behavior)
		}
	}
	sim := g.Clone()
	prev := math.Inf(-1)
	for i, b := range s.Batches {
		if math.IsNaN(b.At) || math.IsInf(b.At, 0) || b.At < 0 {
			return fmt.Errorf("scenario %s: batch %d at non-finite or negative time %g", s.Name, i, b.At)
		}
		if b.At < prev {
			return fmt.Errorf("scenario %s: batch %d at %g precedes batch %d at %g", s.Name, i, b.At, i-1, prev)
		}
		prev = b.At
		for _, m := range b.Muts {
			if err := ApplyLiveness(m, status); err != nil {
				return fmt.Errorf("scenario %s: batch %d: %w", s.Name, i, err)
			}
			if err := m.Apply(sim); err != nil {
				return fmt.Errorf("scenario %s: batch %d: %w", s.Name, i, err)
			}
		}
	}
	return nil
}

// liveStatus is a node's liveness during a dynamic run.
type liveStatus uint8

const (
	statusAwake liveStatus = iota
	statusAsleep
	statusCrashed
)

// ApplyLiveness applies the liveness effect of a mutation to the status
// vector, enforcing the kind's precondition (crash an awake node,
// restart a crashed one, wake an asleep one). Edge mutations are
// liveness no-ops. The engines and Validate share this single
// definition of the liveness state machine.
func ApplyLiveness(m graph.Mutation, status []liveStatus) error {
	switch m.Kind {
	case graph.MutCrashNode:
		if m.U < 0 || m.U >= len(status) {
			return fmt.Errorf("scenario: %s out of range", m)
		}
		if status[m.U] != statusAwake {
			return fmt.Errorf("scenario: %s: node is not awake", m)
		}
		status[m.U] = statusCrashed
	case graph.MutRestartNode:
		if m.U < 0 || m.U >= len(status) {
			return fmt.Errorf("scenario: %s out of range", m)
		}
		if status[m.U] != statusCrashed {
			return fmt.Errorf("scenario: %s: node is not crashed", m)
		}
		status[m.U] = statusAwake
	case graph.MutWakeNode:
		if m.U < 0 || m.U >= len(status) {
			return fmt.Errorf("scenario: %s out of range", m)
		}
		if status[m.U] != statusAsleep {
			return fmt.Errorf("scenario: %s: node is not asleep", m)
		}
		status[m.U] = statusAwake
	}
	return nil
}

// Liveness is the engines' view of the per-node liveness state. It
// wraps the same state machine Validate dry-runs, so an engine can
// never disagree with validation about which mutations are legal.
type Liveness struct {
	status []liveStatus
	awake  int
}

// NewLiveness builds the round-0 liveness state: every node awake
// except the scenario's asleep set (already validated in range).
func NewLiveness(n int, asleep []int) *Liveness {
	l := &Liveness{status: make([]liveStatus, n), awake: n}
	for _, v := range asleep {
		if l.status[v] == statusAwake {
			l.status[v] = statusAsleep
			l.awake--
		}
	}
	return l
}

// Awake reports whether node v is currently executing.
func (l *Liveness) Awake(v int) bool { return l.status[v] == statusAwake }

// NumAwake returns the number of executing nodes.
func (l *Liveness) NumAwake() int { return l.awake }

// Apply applies the liveness effect of m and reports the nodes that
// just (re)started executing (restarted or woken): the engines reset
// those intrinsically.
func (l *Liveness) Apply(m graph.Mutation) (started []int, err error) {
	if err := ApplyLiveness(m, l.status); err != nil {
		return nil, err
	}
	switch m.Kind {
	case graph.MutCrashNode:
		l.awake--
	case graph.MutRestartNode, graph.MutWakeNode:
		l.awake++
		started = []int{m.U}
	}
	return started, nil
}
