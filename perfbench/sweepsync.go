package main

import (
	"bytes"
	"fmt"
	"time"

	"stoneage/internal/campaign"
	"stoneage/internal/engine"
	"stoneage/internal/protocol"
)

var _ = register(&workload{
	name:       "sweep-sync",
	why:        "campaign sweep (RunCell, Merge, emit) of mis on four random families and color3 on trees on the flat sync engine; only flat executor, CheckRun and campaign aggregation work",
	passS:      0.22,
	calibrated: true,
	run:        runSweepSync,
})

// sweepCell is one campaign cell of sweep-sync, in the fixed order the
// timed passes visit them.
type sweepCell struct {
	label    string
	protocol string
	family   campaign.Family
	spec     int // index into sweepSpecs
}

// sweepCells lists the cells; labels name the campaign.self_ms metrics.
func sweepCells() []sweepCell {
	var out []sweepCell
	for _, kind := range []string{"gnp", "geometric", "powerlaw", "smallworld"} {
		out = append(out, sweepCell{label: "mis-" + kind, protocol: "mis", family: campaign.Family{Kind: kind}, spec: 0})
	}
	return append(out, sweepCell{label: "color3-tree", protocol: "color3", family: campaign.Family{Kind: "tree"}, spec: 1})
}

// sweepSpecs returns the two campaign specs sweep-sync runs: mis over
// four random families and color3 (a multi-letter protocol) on trees.
// Sizes stay below the packed auto-threshold (2¹⁶), so every trial runs
// on the flat executor.
func sweepSpecs(seed uint64, toy bool) []campaign.Spec {
	n, trials := 2048, 8
	if toy {
		n, trials = 64, 2
	}
	var misFamilies []campaign.Family
	for _, c := range sweepCells() {
		if c.spec == 0 {
			misFamilies = append(misFamilies, c.family)
		}
	}
	return []campaign.Spec{
		{Name: "sweep-sync mis", Protocols: []string{"mis"}, Families: misFamilies,
			Sizes: []int{n}, Trials: trials, Seed: seed, Workers: 1},
		{Name: "sweep-sync color3", Protocols: []string{"color3"}, Families: []campaign.Family{{Kind: "tree"}},
			Sizes: []int{n}, Trials: trials, Seed: seed, Workers: 1},
	}
}

func runSweepSync(r *runner) error {
	specs := sweepSpecs(r.o.seed, r.o.toy)
	cells := sweepCells()
	ids := make([]campaign.CellID, len(cells))
	for i, c := range cells {
		sp := specs[c.spec]
		for _, id := range sp.CellIDs() {
			if id.Protocol == c.protocol && id.Family.Kind == c.family.Kind {
				ids[i] = id
			}
		}
		if ids[i].Protocol == "" {
			return fmt.Errorf("sweep-sync: cell %s missing from its spec", c.label)
		}
	}
	descs := map[string]*protocol.Descriptor{}
	codes := map[string]*engine.MachineCode{}
	for _, c := range cells {
		d, err := protocol.Lookup(c.protocol)
		if err != nil {
			return err
		}
		descs[c.protocol] = d
	}
	scratch := protocol.NewScratch()
	escr := engine.NewScratch()

	// Set-up: compile each protocol's machine and run one warm-up trial
	// per cell through RunCell (which also fills the registry's compile
	// cache and the scratch arena).
	err := r.setup(func(rep int) error {
		for name, d := range descs {
			r.tr.begin("engine.compile", -1)
			args, err := d.ResolveArgs(nil)
			if err != nil {
				return err
			}
			m, err := d.Machine(args)
			if err != nil {
				return err
			}
			codes[name] = engine.CompileMachine(m)
			r.tr.end()
		}
		for i, c := range cells {
			warm := specs[c.spec]
			warm.Trials = 1
			if _, err := campaign.RunCell(warm, ids[i], scratch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	trials := specs[0].Trials
	passes := r.passes()
	results := []map[string]campaign.CellResult{{}, {}}
	first := make([]string, len(cells))
	var nodeRounds float64
	var edges, graphs int
	for p := 0; p < passes; p++ {
		r.beginPass()
		for ci, c := range cells {
			k := p*len(cells) + ci
			sp := specs[c.spec]
			r.tr.begin("campaign.cell", k)
			t0 := time.Now()
			cr, err := campaign.RunCell(sp, ids[ci], scratch)
			dt := time.Since(t0)
			r.tr.end()
			r.res.Attempted += trials
			if err != nil {
				r.res.Failed += trials
				r.res.Info["last_error"] = err.Error()
				continue
			}
			results[c.spec][ids[ci].Key()] = cr
			if cr.ValidRate != 1 || cr.ConvergedRate != 1 || cr.Trials != trials {
				r.res.Failed += trials
				continue
			}
			sum := cr.Rounds.Mean * float64(trials)
			r.res.Converged += trials
			r.res.SimTime += sum
			r.sample(dt, trials, float64(cr.N)*sum)
			rec := fmt.Sprintf("%s n=%d m=%d rounds=%v tx=%v", c.label, cr.N, cr.M, cr.Rounds.Mean, cr.Transmissions.Mean)
			if p == 0 {
				first[ci] = rec
				r.res.Trials = append(r.res.Trials, rec)
			} else {
				r.check(rec == first[ci], "sweep-sync pass %d: cell %s gave %q, pass 0 gave %q", p, c.label, rec, first[ci])
			}
			if r.traced() {
				nr, m, err := replayCell(r, k, sp, c, descs[c.protocol], codes[c.protocol], escr, cr)
				if err != nil {
					return err
				}
				nodeRounds += nr
				edges += m
				graphs++
			}
		}
		for s, sp := range specs {
			r.tr.begin("campaign.merge", p)
			res, err := campaign.Merge(sp, results[s])
			r.tr.end()
			if err != nil {
				r.check(false, "sweep-sync merge: %v", err)
				continue
			}
			var js, csv bytes.Buffer
			r.tr.begin("campaign.emit", p)
			jerr := res.WriteJSON(&js)
			cerr := res.WriteCSV(&csv)
			r.tr.end()
			r.check(jerr == nil && cerr == nil && js.Len() > 0 && csv.Len() > 0,
				"sweep-sync emit: json %v, csv %v", jerr, cerr)
		}
		r.endPass()
	}
	r.res.SimUnit = "rounds"
	r.res.Info["engine"] = "sync (flat executor), campaign Workers=1, SyncConfig.Workers=1"
	r.res.Info["size"] = specs[0].Sizes[0]
	r.res.Info["cells"] = len(cells)
	r.res.Info["trials_per_cell_pass"] = trials
	r.res.Info["passes"] = passes
	r.res.Info["sample"] = "host ms of one RunCell divided by its trial count"

	if r.traced() {
		replayed := float64(r.res.Attempted)
		self := r.tr.selfTimes(true)
		r.layer("engine.compile_ms", r.tr.selfTimes(false)["engine.compile"]/setupReps)
		for span, name := range map[string]string{
			"graph.build": "graph.build_ms", "protocol.bind": "protocol.bind_ms",
			"engine.bind": "engine.bind_ms", "engine.flat.run": "engine.flat.run_ms",
			"protocol.decode": "protocol.decode_ms", "protocol.check": "protocol.check_ms",
			"campaign.merge": "campaign.merge_ms", "campaign.emit": "campaign.emit_ms",
		} {
			r.layer(name, self[span]/replayed)
		}
		r.layer("graph.edges", float64(edges)/float64(max(graphs, 1)))
		r.layer("engine.flat.ns_per_node_round", self["engine.flat.run"]*1e6/nodeRounds)
		r.layer("engine.flat.transmissions", txPerPass(results, trials))
		cellMS := r.tr.durations("campaign.cell")
		replayMS := r.tr.durations("replay")
		campaignSelf := 0.0
		for ci, c := range cells {
			sum := 0.0
			for p := 0; p < passes; p++ {
				k := p*len(cells) + ci
				sum += cellMS[k] - replayMS[k]
			}
			v := sum / float64(passes*trials)
			r.layer("campaign.self_ms."+c.label, v)
			campaignSelf += v / float64(len(cells))
		}
		accounted := campaignSelf
		for _, name := range []string{"graph.build_ms", "protocol.bind_ms", "engine.bind_ms",
			"engine.flat.run_ms", "protocol.decode_ms", "protocol.check_ms"} {
			accounted += r.res.Layers[name]
		}
		r.layer("trace.accounted_ms", accounted)
		r.layer("trace.glue_ms", self["replay"]/replayed)
	}
	return nil
}

// txPerPass sums the transmissions of one pass over the trial set.
func txPerPass(results []map[string]campaign.CellResult, trials int) float64 {
	sum := 0.0
	for _, m := range results {
		for _, cr := range m {
			sum += cr.Transmissions.Mean * float64(trials)
		}
	}
	return sum
}

// replayCell re-executes one cell's trials through direct layer calls —
// the graph build, registry Bind, engine bind, flat run, decode and
// check that RunCell performs internally — with a span around each, and
// asserts the replay's rounds and transmissions equal the campaign
// cell's aggregates. It returns the replay's node-rounds and the graph's
// edge count.
func replayCell(r *runner, k int, sp campaign.Spec, c sweepCell, d *protocol.Descriptor, code *engine.MachineCode, escr *engine.Scratch, cr campaign.CellResult) (float64, int, error) {
	n := sp.Sizes[0]
	r.tr.begin("replay", k)
	defer r.tr.end()
	r.tr.begin("graph.build", k)
	g, err := campaign.BuildGraph(c.family, n, sp.GraphSeed(c.family, n, 0))
	r.tr.end()
	if err != nil {
		return 0, 0, err
	}
	r.tr.begin("protocol.bind", k)
	bound, err := d.Bind(g, nil)
	r.tr.end()
	if err != nil {
		return 0, 0, err
	}
	r.tr.begin("engine.bind", k)
	prog := code.Bind(g)
	r.tr.end()
	var rounds, tx int64
	for t := 0; t < sp.Trials; t++ {
		r.tr.begin("engine.flat.run", k)
		res, err := prog.RunSyncReusing(engine.SyncConfig{
			Seed: sp.TrialSeed(c.protocol, c.family, n, t), MaxRounds: sp.MaxRounds,
			Workers: 1, Backend: engine.BackendFlat,
		}, escr)
		r.tr.end()
		if err != nil {
			r.check(false, "replay %s trial %d: %v", c.label, t, err)
			continue
		}
		r.tr.begin("protocol.decode", k)
		out, err := d.Decode(bound.Args(), res.States)
		r.tr.end()
		if err != nil {
			r.check(false, "replay %s trial %d decode: %v", c.label, t, err)
			continue
		}
		r.tr.begin("protocol.check", k)
		err = bound.CheckRun(&protocol.Run{Output: out})
		r.tr.end()
		r.check(err == nil, "replay %s trial %d: invalid output: %v", c.label, t, err)
		rounds += int64(res.Rounds)
		tx += res.Transmissions
	}
	T := float64(sp.Trials)
	r.check(float64(rounds)/T == cr.Rounds.Mean && float64(tx)/T == cr.Transmissions.Mean,
		"replay %s: rounds/tx means %v/%v, campaign cell %v/%v", c.label, float64(rounds)/T, float64(tx)/T, cr.Rounds.Mean, cr.Transmissions.Mean)
	return float64(rounds) * float64(g.N()), g.M(), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
