package main

import (
	"fmt"
	"runtime"
	"time"

	"stoneage/internal/engine"
	"stoneage/internal/graph"
	"stoneage/internal/mis"
	"stoneage/internal/protocol"
	"stoneage/internal/xrand"
)

var _ = register(&workload{
	name:      "million-packed",
	why:       "per trial a streamed G(n,4/n), n=10^6, through BuildCSR, BindCSR, a packed MIS run and a CSR MIS check; graph build and the bit-plane executor dominate, memory is the main cost",
	passS:     5.3,
	footprint: true,
	run:       runMillionPacked,
})

const saltPackedGraph = 0x6772_6170_6800 // "graph"

// packedOutcome is one trial's simulated result.
type packedOutcome struct {
	n, m   int
	rounds int
	tx     int64
	valid  bool
	err    error
}

func (o packedOutcome) record(trial int) string {
	if o.err != nil {
		return fmt.Sprintf("trial %d error=%v", trial, o.err)
	}
	return fmt.Sprintf("trial %d n=%d m=%d rounds=%d tx=%d valid=%v", trial, o.n, o.m, o.rounds, o.tx, o.valid)
}

// runMillionPacked times whole trials: every trial streams a fresh
// graph into a CSR, binds the compiled MIS machine to it, runs it on the
// bit-plane backend and checks the result over the CSR.
func runMillionPacked(r *runner) error {
	n := 1_000_000
	if r.o.toy {
		n = 20_000
	}
	d, err := protocol.Lookup("mis")
	if err != nil {
		return err
	}
	scr := engine.NewScratch()
	var code *engine.MachineCode
	trial := func(k, i int) packedOutcome {
		gseed := xrand.Mix(r.o.seed, saltPackedGraph, uint64(i))
		r.tr.begin("trial", k)
		defer r.tr.end()
		r.tr.begin("graph.build", k)
		csr, err := graph.BuildCSR(graph.GnpConnectedStream(n, 4.0/float64(n), gseed))
		r.tr.end()
		if err != nil {
			return packedOutcome{err: err}
		}
		o := packedOutcome{n: len(csr.NbrOff) - 1, m: len(csr.NbrDat) / 2}
		r.tr.begin("engine.bind", k)
		prog := code.BindCSR(csr)
		r.tr.end()
		r.tr.begin("engine.packed.run", k)
		res, err := prog.RunSyncReusing(engine.SyncConfig{
			Seed: xrand.Mix(r.o.seed, uint64(i)), Workers: 1, Backend: engine.BackendPacked,
		}, scr)
		r.tr.end()
		if err != nil {
			o.err = err
			return o
		}
		o.rounds, o.tx = res.Rounds, res.Transmissions
		r.tr.begin("protocol.decode", k)
		out, err := d.Decode(nil, res.States)
		r.tr.end()
		if err != nil {
			o.err = err
			return o
		}
		r.tr.begin("protocol.check", k)
		o.valid = misOnCSR(csr, out.(protocol.Mask)) == nil
		r.tr.end()
		return o
	}

	if r.o.child == "footprint" {
		return packedFootprint(r, n, func() packedOutcome {
			code = engine.CompileMachine(mis.Protocol())
			return trial(-1, 0)
		})
	}

	err = r.setup(func(rep int) error {
		r.tr.begin("engine.compile", -1)
		code = engine.CompileMachine(mis.Protocol())
		r.tr.end()
		// One warm-up trial on an instance outside the timed set.
		if o := trial(-1, -1-rep); o.err != nil || !o.valid {
			return fmt.Errorf("warm-up trial: valid=%v err=%v", o.valid, o.err)
		}
		return nil
	})
	if err != nil {
		return err
	}

	passes := r.passes()
	var nodeRounds float64
	var edges int
	for i := 0; i < passes; i++ {
		r.beginPass()
		t0 := time.Now()
		o := trial(i, i)
		dt := time.Since(t0)
		r.res.Attempted++
		r.res.Trials = append(r.res.Trials, o.record(i))
		r.sample(dt, 1, float64(o.n)*float64(o.rounds))
		r.endPass()
		if o.err != nil || !o.valid {
			r.res.Failed++
		}
		if o.err != nil {
			continue
		}
		r.res.Converged++
		r.res.SimTime += float64(o.rounds)
		nodeRounds += float64(o.n) * float64(o.rounds)
		edges += o.m
	}
	r.res.SimUnit = "rounds"
	r.res.Info["n"] = n
	r.res.Info["engine"] = "sync packed backend, SyncConfig.Workers=1"
	r.res.Info["trials"] = passes
	r.res.Info["sample"] = "host ms of one whole trial: BuildCSR, BindCSR, packed run, decode, CSR MIS check"

	if r.traced() {
		self := r.tr.selfTimes(true)
		trials := float64(r.res.Attempted)
		r.layer("engine.compile_ms", r.tr.selfTimes(false)["engine.compile"]/setupReps)
		accounted := 0.0
		for span, name := range map[string]string{
			"graph.build": "graph.build_ms", "engine.bind": "engine.bind_ms",
			"engine.packed.run": "engine.packed.run_ms", "protocol.decode": "protocol.decode_ms",
			"protocol.check": "protocol.check_ms",
		} {
			r.layer(name, self[span]/trials)
			accounted += self[span] / trials
		}
		r.layer("graph.edges", float64(edges)/trials)
		r.layer("engine.packed.ns_per_node_round", self["engine.packed.run"]*1e6/nodeRounds)
		r.layer("trace.accounted_ms", accounted)
		r.layer("trace.glue_ms", self["trial"]/trials)
	}
	return nil
}

// packedFootprint runs one trial in this fresh process and reports its
// peak resident set per node, with the resident set before the graph is
// built and after the run for context.
func packedFootprint(r *runner, n int, one func() packedOutcome) error {
	runtime.GC()
	base := procStatusKB("VmRSS")
	t0 := time.Now()
	o := one()
	r.res.Info["trial_s"] = time.Since(t0).Seconds()
	if o.err != nil || !o.valid {
		return fmt.Errorf("footprint trial: valid=%v err=%v", o.valid, o.err)
	}
	hwm := procStatusKB("VmHWM")
	r.res.Attempted = 1
	r.res.Info["n"] = n
	r.res.Info["m"] = o.m
	r.res.Info["rss_before_kb"] = base
	r.res.Info["rss_after_kb"] = procStatusKB("VmRSS")
	r.res.Info["hwm_kb"] = hwm
	r.res.Info["definition"] = "process VmHWM after one BuildCSR + BindCSR + packed MIS run + check, divided by n"
	r.layer("engine.packed.bytes_per_node", float64(hwm)*1024/float64(n))
	return nil
}

// misOnCSR checks independence and maximality of an MIS over a CSR
// adjacency, so the million-node graph is never materialized.
func misOnCSR(csr *graph.CSR, in protocol.Mask) error {
	n := len(csr.NbrOff) - 1
	if len(in) != n {
		return fmt.Errorf("mask has %d entries for %d nodes", len(in), n)
	}
	for v := 0; v < n; v++ {
		covered := in[v]
		for _, u := range csr.NbrDat[csr.NbrOff[v]:csr.NbrOff[v+1]] {
			if in[u] {
				if in[v] {
					return fmt.Errorf("adjacent nodes %d and %d both in the set", v, u)
				}
				covered = true
			}
		}
		if !covered {
			return fmt.Errorf("node %d and all its neighbours are outside the set", v)
		}
	}
	return nil
}
