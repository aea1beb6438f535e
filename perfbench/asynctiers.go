package main

import (
	"errors"
	"fmt"
	"time"

	"stoneage/internal/campaign"
	"stoneage/internal/channel"
	"stoneage/internal/engine"
	"stoneage/internal/nfsm"
	"stoneage/internal/protocol"
	"stoneage/internal/scenario"
	"stoneage/internal/synchro"
	"stoneage/internal/xrand"
)

var _ = register(&workload{
	name:       "async-tiers",
	why:        "mis and ssmis under the alpha, alpha-beta and voted synchronizers, reliable and hostile links; the only load on the ladder executor, synchro runtime and channel layers",
	passS:      0.65,
	calibrated: true,
	run:        runAsyncTiers,
})

// asyncCell is one (tier, channel, protocol, size) cell of async-tiers.
type asyncCell struct {
	label    string
	tier     string // protocol.Synchro* value
	ch       channel.Def
	protocol string
	n        int
}

const (
	asyncMaxSteps = 4_000_000
	saltAdversary = 0x6164_7600
)

// asyncCells lists the cells in the fixed order every pass visits them.
// Sizes differ per cell so that per-trial costs stay within a small
// factor of each other: an async mis trial costs about ten times an
// ssmis trial of the same size, and the hostile cells cost two to four
// times the reliable ones.
func asyncCells(toy bool) []asyncCell {
	drop := channel.Def{Drop: 0.1, Label: "drop-10"}
	hostile := channel.Def{Corrupt: 0.05, Byz: []channel.ByzDef{{Behavior: channel.BehaviorSilent, Frac: 0.05}}, Label: "corrupt-5+byz-silent"}
	var out []asyncCell
	add := func(tier, tierLabel string, ch channel.Def, misN, ssmisN int) {
		for _, p := range []string{"mis", "ssmis"} {
			n := misN
			if p == "ssmis" {
				n = ssmisN
			}
			if toy {
				n = 16
			}
			label := fmt.Sprintf("%s/%s/%s", tierLabel, ch.Name(), p)
			out = append(out, asyncCell{label: label, tier: tier, ch: ch, protocol: p, n: n})
		}
	}
	add(protocol.SynchroAlpha, "alpha", channel.Def{}, 64, 384)
	add(protocol.SynchroTolerant, "tolerant", channel.Def{}, 64, 384)
	add(protocol.SynchroVoted, "voted", channel.Def{}, 64, 384)
	add(protocol.SynchroTolerant, "tolerant", drop, 32, 256)
	add(protocol.SynchroVoted, "voted", hostile, 24, 128)
	return out
}

// tierOf maps a synchronizer to its metric suffix.
func tierOf(s string) string {
	switch s {
	case protocol.SynchroTolerant:
		return "tolerant"
	case protocol.SynchroVoted:
		return "voted"
	}
	return "alpha"
}

// asyncTrial is one trial's inputs, derived from the workload seed.
type asyncTrial struct {
	seed, advSeed, chSeed uint64
}

// asyncOutcome is one trial's simulated result.
type asyncOutcome struct {
	err                error
	valid              bool
	tu                 float64
	steps, tx          int64
	dropped, corrupted int64
	outvoted, evicted  int64
	rePulseTx          int64
}

func (o asyncOutcome) record(label string, trial int) string {
	if o.err != nil {
		return fmt.Sprintf("%s#%d error=%v", label, trial, o.err)
	}
	return fmt.Sprintf("%s#%d valid=%v tu=%v steps=%d dropped=%d corrupted=%d outvoted=%d evicted=%d repulse_sends=%d",
		label, trial, o.valid, o.tu, o.steps, o.dropped, o.corrupted, o.outvoted, o.evicted, o.rePulseTx)
}

// asyncCellState is a cell's compiled synchronizer machine and engine
// code (the traced run executes through them) and, per trial index, its
// graph bound to the protocol.
type asyncCellState struct {
	desc     *protocol.Descriptor
	compiled *synchro.Compiled
	code     *engine.MachineCode
	bounds   []*protocol.Bound
}

func runAsyncTiers(r *runner) error {
	cells := asyncCells(r.o.toy)
	passes := r.passes()
	gnp := campaign.Family{Kind: "gnp", Param: campaign.Param(4)}
	sp := campaign.Spec{Seed: r.o.seed, GraphPerTrial: true}
	trial := func(c asyncCell, i int) asyncTrial {
		s := sp.TrialSeed(c.protocol, gnp, c.n, i)
		return asyncTrial{seed: s, advSeed: xrand.Mix(s, saltAdversary), chSeed: sp.ChannelSeed(c.ch, gnp, c.n, i)}
	}

	// Every trial runs on its own graph instance, so a run averages over
	// the family instead of hanging on one draw per cell. Graphs are
	// built and bound during set-up; the engine's lazy per-graph bind
	// happens inside the timed trial, as in a campaign cell.
	states := make([]asyncCellState, len(cells))
	scratch := protocol.NewScratch()
	escr := engine.NewScratch()
	err := r.setup(func(rep int) error {
		for i, c := range cells {
			d, err := protocol.Lookup(c.protocol)
			if err != nil {
				return err
			}
			args, err := d.ResolveArgs(nil)
			if err != nil {
				return err
			}
			m, err := d.Machine(args)
			if err != nil {
				return err
			}
			r.tr.begin("synchro.compile."+tierOf(c.tier), -1)
			compiled, err := compileTier(c.tier, m)
			r.tr.end()
			if err != nil {
				return err
			}
			r.tr.begin("engine.compile", -1)
			code := engine.CompileMachine(compiled)
			r.tr.end()
			st := asyncCellState{desc: d, compiled: compiled, code: code}
			for t := 0; t <= passes; t++ {
				r.tr.begin("graph.build", -1)
				g, err := campaign.BuildGraph(gnp, c.n, sp.GraphSeed(gnp, c.n, t))
				r.tr.end()
				if err != nil {
					return err
				}
				r.tr.begin("protocol.bind", -1)
				b, err := d.Bind(g, nil)
				r.tr.end()
				if err != nil {
					return err
				}
				st.bounds = append(st.bounds, b)
			}
			states[i] = st
			// The warm-up trial uses the index after the timed set.
			if r.traced() {
				runAsyncTraced(r, -1, c, &states[i], passes, trial(c, passes), escr)
			} else {
				runAsyncPlain(c, &states[i], passes, trial(c, passes), scratch)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var steps, tx, rePulseTx, outvoted, evicted, dropped, corrupted int64
	for p := 0; p < passes; p++ {
		r.beginPass()
		for ci, c := range cells {
			k := p*len(cells) + ci
			in := trial(c, p)
			t0 := time.Now()
			var o asyncOutcome
			if r.traced() {
				o = runAsyncTraced(r, k, c, &states[ci], p, in, escr)
			} else {
				o = runAsyncPlain(c, &states[ci], p, in, scratch)
			}
			dt := time.Since(t0)
			r.res.Attempted++
			r.res.Trials = append(r.res.Trials, o.record(c.label, p))
			r.sample(dt, 1, float64(o.steps))
			if o.err != nil {
				r.res.Failed++
				continue
			}
			r.res.Converged++
			r.res.SimTime += o.tu
			if !o.valid {
				r.res.Failed++
			}
			steps += o.steps
			tx += o.tx
			rePulseTx += o.rePulseTx
			outvoted += o.outvoted
			evicted += o.evicted
			dropped += o.dropped
			corrupted += o.corrupted
		}
		r.endPass()
	}
	r.res.SimUnit = "time-units"
	var labels []string
	for _, c := range cells {
		labels = append(labels, fmt.Sprintf("%s n=%d", c.label, c.n))
	}
	r.res.Info["cells"] = labels
	r.res.Info["engine"] = "async ladder executor, uniform adversary, gnp(4/n), maxSteps 4e6, one scratch arena"
	r.res.Info["trials_per_cell"] = passes
	r.res.Info["passes"] = passes

	if r.traced() {
		self, setup := r.tr.selfTimes(true), r.tr.selfTimes(false)
		trials := float64(r.res.Attempted)
		r.layer("engine.compile_ms", setup["engine.compile"]/setupReps)
		for _, t := range []string{"alpha", "tolerant", "voted"} {
			r.layer("synchro.compile_ms."+t, setup["synchro.compile."+t]/setupReps)
			cellsOfTier := 0
			for _, c := range cells {
				if tierOf(c.tier) == t {
					cellsOfTier++
				}
			}
			r.layer("engine.async.run_ms."+t, self["engine.async.run."+t]/float64(passes*cellsOfTier))
		}
		run := self["engine.async.run.alpha"] + self["engine.async.run.tolerant"] + self["engine.async.run.voted"]
		r.layer("engine.async.ns_per_step", run*1e6/float64(steps))
		// Counts are totals over the timed trial set: exact and
		// deterministic for a seed.
		r.layer("engine.async.steps", float64(steps))
		r.layer("synchro.repulse_sends", float64(rePulseTx))
		r.layer("synchro.repulse_share", float64(rePulseTx)/float64(tx))
		r.layer("synchro.outvoted", float64(outvoted))
		r.layer("synchro.evicted", float64(evicted))
		r.layer("channel.dropped", float64(dropped))
		r.layer("channel.corrupted", float64(corrupted))
		accounted := 0.0
		for span, name := range map[string]string{
			"synchro.decode": "synchro.decode_ms", "protocol.decode": "protocol.decode_ms",
			"protocol.check": "protocol.check_ms", "channel.model": "channel.model_ms",
			"engine.bind": "engine.bind_ms",
		} {
			r.layer(name, self[span]/trials)
			accounted += self[span] / trials
		}
		accounted += run / trials
		r.layer("trace.accounted_ms", accounted)
		r.layer("trace.glue_ms", self["trial"]/trials)
	}
	return nil
}

func compileTier(tier string, m *nfsm.RoundProtocol) (*synchro.Compiled, error) {
	switch tier {
	case protocol.SynchroTolerant:
		return synchro.CompileRoundTolerant(m)
	case protocol.SynchroVoted:
		return synchro.CompileRoundVoted(m)
	}
	return synchro.CompileRound(m)
}

// byzScenario builds the scenario that carries a channel's Byzantine
// nodes, as a campaign channel cell does; nil when there are none.
func byzScenario(byz []channel.ByzNode) *scenario.Scenario {
	if len(byz) == 0 {
		return nil
	}
	return &scenario.Scenario{Reset: scenario.ResetAuto, Byzantine: byz}
}

// runAsyncPlain runs one trial through the protocol layer, as a
// campaign cell does, and validates it with CheckRun.
func runAsyncPlain(c asyncCell, st *asyncCellState, t int, in asyncTrial, scratch *protocol.Scratch) asyncOutcome {
	b := st.bounds[t]
	model := c.ch.Model(in.chSeed)
	sc := byzScenario(c.ch.Byzantine(c.n, in.chSeed))
	adv := engine.NamedAdversaries(in.advSeed)["uniform"]
	run, err := b.RunAsyncReusing(protocol.AsyncConfig{
		Seed: in.seed, Adversary: adv, MaxSteps: asyncMaxSteps, Scenario: sc,
		Channel: model, Synchro: c.tier,
	}, scratch)
	if err != nil {
		return asyncOutcome{err: err}
	}
	return asyncOutcome{
		valid: b.CheckRun(run) == nil,
		tu:    run.TimeUnits, steps: run.Steps,
		dropped: run.Dropped, corrupted: run.Corrupted,
		outvoted: run.Outvoted, evicted: int64(len(run.EvictedEdges)),
		rePulseTx: run.RePulseSends,
	}
}

// runAsyncTraced runs one trial through direct layer calls — channel
// model, engine executor, synchronizer decode, protocol decode and
// check — with a span around each. It reproduces what the protocol
// layer's RunAsyncReusing does; the parent asserts both give the same
// per-trial record.
func runAsyncTraced(r *runner, k int, c asyncCell, st *asyncCellState, t int, in asyncTrial, escr *engine.Scratch) asyncOutcome {
	b := st.bounds[t]
	r.tr.begin("trial", k)
	defer r.tr.end()
	r.tr.begin("engine.bind", k)
	prog := st.code.Bind(b.Graph())
	r.tr.end()
	r.tr.begin("channel.model", k)
	model := c.ch.Model(in.chSeed)
	byz := c.ch.Byzantine(c.n, in.chSeed)
	r.tr.end()
	// The engine needs a concrete reset policy; resolve ResetAuto the way
	// the protocol layer does.
	sc := byzScenario(byz)
	if sc != nil {
		reset := scenario.ResetAll
		if st.desc.Caps.Has(protocol.CapSelfStabilizing) {
			reset = scenario.ResetNone
		}
		sc = sc.WithReset(reset)
	}
	var voted *engine.VotedConfig
	if c.tier == protocol.SynchroVoted {
		voted = &engine.VotedConfig{RePulseSource: st.compiled.RePulseSource}
	}
	adv := engine.NamedAdversaries(in.advSeed)["uniform"]
	r.tr.begin("engine.async.run."+tierOf(c.tier), k)
	res, err := prog.RunAsyncReusing(engine.AsyncConfig{
		Seed: in.seed, Adversary: adv, MaxSteps: asyncMaxSteps, Scenario: sc,
		Channel: model, Voted: voted,
	}, escr)
	r.tr.end()
	if err != nil {
		return asyncOutcome{err: err}
	}
	r.tr.begin("synchro.decode", k)
	states := st.compiled.DecodeStates(res.States)
	r.tr.end()
	r.tr.begin("protocol.decode", k)
	out, err := decodeMasked(b, states, byz)
	r.tr.end()
	if err != nil {
		return asyncOutcome{err: err}
	}
	var byzIDs []int
	for _, z := range byz {
		byzIDs = append(byzIDs, z.Node)
	}
	r.tr.begin("protocol.check", k)
	cerr := b.CheckRun(&protocol.Run{Output: out, FinalGraph: res.FinalGraph, Byzantine: byzIDs})
	r.tr.end()
	return asyncOutcome{
		valid: cerr == nil,
		tu:    res.TimeUnits, steps: res.Steps, tx: res.Transmissions,
		dropped: res.Dropped, corrupted: res.Corrupted,
		outvoted: res.Outvoted, evicted: int64(len(res.EvictedEdges)),
		rePulseTx: res.RePulseSends,
	}
}

// decodeMasked decodes engine states into the protocol's output,
// substituting the machine's first output state at Byzantine nodes
// (which never run the machine), as the protocol layer does.
func decodeMasked(b *protocol.Bound, states []nfsm.State, byz []channel.ByzNode) (protocol.Output, error) {
	d := b.Descriptor()
	if len(byz) > 0 {
		m, err := d.Machine(b.Args())
		if err != nil {
			return nil, err
		}
		q0 := -1
		for q, out := range m.Output {
			if out {
				q0 = q
				break
			}
		}
		if q0 < 0 {
			return nil, errors.New("machine has no output state")
		}
		states = append([]nfsm.State(nil), states...)
		for _, z := range byz {
			states[z.Node] = nfsm.State(q0)
		}
	}
	return d.Decode(b.Args(), states)
}
