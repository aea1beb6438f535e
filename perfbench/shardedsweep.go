package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"stoneage/internal/campaign"
	"stoneage/internal/dispatch"
	"stoneage/internal/engine"
	"stoneage/internal/protocol"
)

var _ = register(&workload{
	name:       "sharded-sweep",
	why:        "a campaign sharded by dispatch.Run over 2 in-process socket workers, each cell many times the 50 ms worker poll; the only workload that exercises dispatch",
	passS:      1.1,
	calibrated: true,
	run:        runShardedSweep,
})

// shardProcs is the fixed worker count (the reference host's nproc).
const shardProcs = 2

func shardSpec(seed uint64, toy bool) campaign.Spec {
	n, trials := 4096, 48
	if toy {
		n, trials = 64, 2
	}
	return campaign.Spec{
		Name:      "sharded-sweep",
		Protocols: []string{"mis"},
		Families:  []campaign.Family{{Kind: "gnp"}, {Kind: "geometric"}, {Kind: "powerlaw"}, {Kind: "smallworld"}},
		Sizes:     []int{n},
		Trials:    trials,
		Seed:      seed,
		Workers:   1,
	}
}

// inProcessWorker runs a dispatch worker on a goroutine of this process;
// it talks to the coordinator over the unix socket like a re-exec'd one.
func inProcessWorker(ctx context.Context, o dispatch.Options) (func() error, error) {
	errc := make(chan error, 1)
	go func() {
		_, err := dispatch.Work(ctx, o)
		errc <- err
	}()
	return func() error { return <-errc }, nil
}

// sweepOnce runs one sharded sweep in a fresh work directory and
// removes the directory afterwards.
func sweepOnce(r *runner, sp campaign.Spec, k int) (*campaign.Result, dispatch.Report, time.Duration, error) {
	dir, err := os.MkdirTemp(r.o.scratch, "shard-")
	if err != nil {
		return nil, dispatch.Report{}, 0, err
	}
	defer os.RemoveAll(dir)
	r.tr.begin("dispatch.sweep", k)
	t0 := time.Now()
	res, rep, err := dispatch.Run(context.Background(), dispatch.Config{
		Spec: sp, WorkDir: dir, Procs: shardProcs, SpawnWorker: inProcessWorker,
	})
	dt := time.Since(t0)
	r.tr.end()
	return res, rep, dt, err
}

func runShardedSweep(r *runner) error {
	sp := shardSpec(r.o.seed, r.o.toy)
	err := r.setup(func(rep int) error {
		r.tr.begin("engine.compile", -1)
		d, err := protocol.Lookup("mis")
		if err != nil {
			return err
		}
		m, err := d.Machine(nil)
		if err != nil {
			return err
		}
		engine.CompileMachine(m)
		r.tr.end()
		// The warm-up is a one-trial sweep of the same cells.
		warm := sp
		warm.Trials = 1
		_, _, _, err = sweepOnce(r, warm, -1)
		return err
	})
	if err != nil {
		return err
	}

	cells := len(sp.CellIDs())
	passes := r.passes()
	var first []byte
	var overhead float64
	var requeued int
	for p := 0; p < passes; p++ {
		r.beginPass()
		res, rep, dt, err := sweepOnce(r, sp, p)
		r.res.Attempted += cells * sp.Trials
		r.endPass()
		if err != nil {
			r.res.Failed += cells * sp.Trials
			r.res.Info["last_error"] = err.Error()
			continue
		}
		requeued += rep.Requeued
		r.check(rep.Executed == cells && rep.Requeued == 0, "sweep %d: executed %d of %d cells, requeued %d", p, rep.Executed, cells, rep.Requeued)
		events, compute := 0.0, 0.0
		for _, c := range res.Cells {
			if c.ValidRate != 1 || c.ConvergedRate != 1 {
				r.res.Failed += c.Trials
				continue
			}
			sum := c.Rounds.Mean * float64(c.Trials)
			r.res.Converged += c.Trials
			r.res.SimTime += sum
			events += float64(c.N) * sum
			compute += c.WallMS.Mean * float64(c.Trials)
		}
		r.sample(dt, 1, events)
		overhead += ms(dt) - compute/shardProcs
		res.StripWall()
		var js bytes.Buffer
		if err := res.WriteJSON(&js); err != nil {
			return err
		}
		if p == 0 {
			first = js.Bytes()
			for _, c := range res.Cells {
				r.res.Trials = append(r.res.Trials, fmt.Sprintf("%s/%d n=%d m=%d rounds=%v tx=%v",
					c.Family, c.Size, c.N, c.M, c.Rounds.Mean, c.Transmissions.Mean))
			}
		} else {
			r.check(bytes.Equal(first, js.Bytes()), "sweep %d: merged result differs from sweep 0", p)
		}
	}
	r.res.SimUnit = "rounds"
	r.res.Info["procs"] = shardProcs
	r.res.Info["mode"] = "dispatch.Run, unix socket coordinator, in-process workers"
	r.res.Info["cells"] = cells
	r.res.Info["trials_per_cell"] = sp.Trials
	r.res.Info["size"] = sp.Sizes[0]
	r.res.Info["sweeps"] = passes
	r.res.Info["sample"] = "host ms of one whole sharded sweep"

	if r.traced() {
		sweeps := float64(len(r.res.SampleMS))
		r.layer("engine.compile_ms", r.tr.selfTimes(false)["engine.compile"]/setupReps)
		r.layer("dispatch.overhead_ms", overhead/sweeps)
		r.layer("dispatch.requeued", float64(requeued))
		r.layer("trace.accounted_ms", r.tr.selfTimes(true)["dispatch.sweep"]/sweeps)
	}
	return nil
}
