package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	// passS is the nominal host seconds of one timed pass on the
	// reference host (2 vCPU Xeon). The pass count is
	// round(--seconds / passS), so a run's trial set depends on the
	// seed and --seconds only, never on how fast the host happens to be.
	passS float64
	// footprint marks the workload whose traced run also measures the
	// packed engine's resident bytes per node in a fresh process.
	footprint bool
	// calibrated scales host times by the calibration (calibrate.go);
	// off for a workload bound by main memory, which it does not track.
	calibrated bool
	// run executes set-up and the timed passes, filling r.
	run func(r *runner) error
}

var workloads = map[string]*workload{}

func register(w *workload) *workload {
	workloads[w.name] = w
	return w
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// setupReps is how many times a child repeats its set-up; setup_s is
// the median.
const setupReps = 3

// childResult is what one workload process reports to the parent. Host
// times are in reference-host units (see calibrate.go).
type childResult struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	// SetupS holds one duration per set-up repetition.
	SetupS []float64 `json:"setupS"`
	// SampleMS holds the timed samples: host ms per trial (per sweep on
	// sharded-sweep).
	SampleMS []float64 `json:"sampleMS"`
	// EventsPerS holds simulated node activations per host second of
	// sample time, one per timed pass.
	EventsPerS []float64 `json:"eventsPerS"`
	// TimedS is the host time of all timed passes; TrialsPerS holds
	// each pass's trials attempted per host second.
	TimedS     float64   `json:"timedS"`
	TrialsPerS []float64 `json:"trialsPerS"`
	// Attempted and Failed count trials; a failure is an error, a run
	// that did not converge, or an output its validator rejected.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Converged counts trials that reached an output configuration;
	// SimTime sums their rounds (sync) or time units (async).
	Converged int     `json:"converged"`
	SimTime   float64 `json:"simTime"`
	SimUnit   string  `json:"simUnit"`
	PeakRSSMB float64 `json:"peakRSSMB"`
	// Trials holds one deterministic record per trial of the trial set
	// (its first pass): the simulated results the traced run must
	// reproduce exactly.
	Trials []string `json:"trials"`
	// Layers holds per-layer metrics (traced and footprint children).
	Layers map[string]float64 `json:"layers,omitempty"`
	Info   map[string]any     `json:"info"`
	// Errors lists failed benchmark checks (not trial failures).
	Errors []string `json:"errors"`
}

// runner carries one child's settings and accumulates its result.
type runner struct {
	o   options
	w   *workload
	tr  *tracer
	res *childResult

	// Timed-pass bookkeeping, in raw host time: cal[p] is the
	// calibration taken before pass p (and after pass p-1), passMS the
	// pass durations; each sample and event count remembers its pass.
	cal        []calPoint
	passStart  []time.Time
	passEnd    []time.Time
	passMS     []float64
	samplePass []int
	eventPass  []float64 // simulated events per pass
	sampleSum  []float64 // raw sample ms per pass
	attempted  []int     // trials attempted per pass
}

// traced reports whether this child records spans.
func (r *runner) traced() bool { return r.tr.on }

// passes returns the workload's fixed number of timed passes.
func (r *runner) passes() int {
	return max(1, int(math.Round(r.o.seconds/r.w.passS)))
}

// setup runs fn setupReps times, recording each duration scaled by the
// calibrations taken around the repetitions, then collects garbage so
// the timed phase starts from a clean heap.
func (r *runner) setup(fn func(rep int) error) error {
	r.calibrate()
	var raw []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		raw = append(raw, time.Since(t0).Seconds())
		r.calibrate()
	}
	f := 1.0
	if len(r.cal) > 0 {
		var cals []float64
		for _, c := range r.cal {
			cals = append(cals, c.ms)
		}
		f = factor(cals...)
	}
	for _, d := range raw {
		r.res.SetupS = append(r.res.SetupS, d*f)
	}
	runtime.GC()
	return nil
}

// beginPass starts one timed pass; the first call takes the opening
// calibration.
func (r *runner) beginPass() {
	if len(r.passMS) == 0 {
		r.calibrate()
	}
	r.passMS = append(r.passMS, 0)
	r.eventPass = append(r.eventPass, 0)
	r.sampleSum = append(r.sampleSum, 0)
	r.attempted = append(r.attempted, r.res.Attempted)
	r.passStart = append(r.passStart, time.Now())
}

// endPass closes the current pass and calibrates.
func (r *runner) endPass() {
	p := len(r.passMS) - 1
	r.passEnd = append(r.passEnd, time.Now())
	r.passMS[p] = ms(r.passEnd[p].Sub(r.passStart[p]))
	r.attempted[p] = r.res.Attempted - r.attempted[p]
	r.calibrate()
}

// calibrate records one calibration on calibrated workloads.
func (r *runner) calibrate() {
	if r.w.calibrated {
		r.cal = append(r.cal, calPoint{time.Now(), calibrate()})
	}
}

// sample records one timed sample of the current pass — d spread over
// the given number of trials — and the simulated node activations it
// executed.
func (r *runner) sample(d time.Duration, trials int, events float64) {
	p := len(r.passMS) - 1
	r.res.SampleMS = append(r.res.SampleMS, ms(d)/float64(trials))
	r.samplePass = append(r.samplePass, p)
	r.eventPass[p] += events
	r.sampleSum[p] += ms(d)
}

// normalize converts the timed phase to reference-host time and
// derives the per-pass trial and event rates; it returns the median
// scale factor.
func (r *runner) normalize() float64 {
	raw := append([]float64(nil), r.res.SampleMS...)
	f := make([]float64, len(r.passMS))
	r.res.TimedS = 0
	for p := range r.passMS {
		f[p] = 1
		if r.w.calibrated {
			f[p] = passFactor(r.cal, r.passStart[p], r.passEnd[p])
		}
		r.res.TimedS += r.passMS[p] * f[p] / 1000
		r.res.TrialsPerS = append(r.res.TrialsPerS, float64(r.attempted[p])/(r.passMS[p]*f[p]/1000))
		if r.sampleSum[p] > 0 {
			r.res.EventsPerS = append(r.res.EventsPerS, r.eventPass[p]/(r.sampleSum[p]*f[p]/1000))
		}
	}
	for i, p := range r.samplePass {
		r.res.SampleMS[i] *= f[p]
	}
	med := median(f)
	r.res.Info["host_factor"] = map[string]float64{"median": med, "min": quantile(f, 0), "max": quantile(f, 1)}
	r.res.Info["raw_trial_ms_p50"] = median(raw)
	return med
}

// check records a failed benchmark check.
func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
	}
}

// layer sets one per-layer metric.
func (r *runner) layer(name string, v float64) {
	if r.res.Layers == nil {
		r.res.Layers = map[string]float64{}
	}
	r.res.Layers[name] = v
}

func runChild(w *workload, o options) (*childResult, error) {
	r := &runner{
		o:   o,
		w:   w,
		tr:  newTracer(o.child == "traced"),
		res: &childResult{Workload: w.name, Mode: o.child, Info: map[string]any{}},
	}
	if err := w.run(r); err != nil {
		return nil, err
	}
	if len(r.passMS) > 0 {
		f := r.normalize()
		// Per-layer host times share the run's median scale.
		for name, v := range r.res.Layers {
			if u := layerUnits[name]; u == "ms" || u == "ns" {
				r.res.Layers[name] = v * f
			}
		}
	}
	r.res.PeakRSSMB = float64(procStatusKB("VmHWM")) / 1024
	if r.traced() {
		path := filepath.Join(o.scratch, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		r.res.Info["spans"] = len(r.tr.spans)
		r.res.Info["span_file"] = path
	}
	return r.res, nil
}

// procStatusKB reads one kB-valued field of /proc/self/status (VmRSS,
// VmHWM), or 0 where it is unavailable.
func procStatusKB(field string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseInt(f[0], 10, 64)
			return kb
		}
	}
	return 0
}

// layerDef names one per-layer metric and its unit. Every traced run
// reports all of them; a layer the workload does not reach reads 0.
type layerDef struct{ name, unit string }

var layerDefs []layerDef

var layerUnits = map[string]string{}

func defLayers(defs ...layerDef) {
	for _, d := range defs {
		layerDefs = append(layerDefs, d)
		layerUnits[d.name] = d.unit
	}
}

func init() {
	defLayers(
		layerDef{"graph.build_ms", "ms"},
		layerDef{"graph.edges", "count"},
		layerDef{"engine.compile_ms", "ms"},
		layerDef{"engine.bind_ms", "ms"},
		layerDef{"synchro.compile_ms.alpha", "ms"},
		layerDef{"synchro.compile_ms.tolerant", "ms"},
		layerDef{"synchro.compile_ms.voted", "ms"},
		layerDef{"engine.flat.run_ms", "ms"},
		layerDef{"engine.flat.ns_per_node_round", "ns"},
		layerDef{"engine.flat.transmissions", "count"},
		layerDef{"engine.packed.run_ms", "ms"},
		layerDef{"engine.packed.ns_per_node_round", "ns"},
		layerDef{"engine.packed.bytes_per_node", "B"},
		layerDef{"engine.async.run_ms.alpha", "ms"},
		layerDef{"engine.async.run_ms.tolerant", "ms"},
		layerDef{"engine.async.run_ms.voted", "ms"},
		layerDef{"engine.async.ns_per_step", "ns"},
		layerDef{"engine.async.steps", "count"},
		layerDef{"synchro.decode_ms", "ms"},
		layerDef{"synchro.repulse_sends", "count"},
		layerDef{"synchro.repulse_share", "share"},
		layerDef{"synchro.outvoted", "count"},
		layerDef{"synchro.evicted", "count"},
		layerDef{"channel.model_ms", "ms"},
		layerDef{"channel.dropped", "count"},
		layerDef{"channel.corrupted", "count"},
		layerDef{"protocol.bind_ms", "ms"},
		layerDef{"protocol.decode_ms", "ms"},
		layerDef{"protocol.check_ms", "ms"},
	)
	for _, c := range sweepCells() {
		defLayers(layerDef{"campaign.self_ms." + c.label, "ms"})
	}
	defLayers(
		layerDef{"campaign.merge_ms", "ms"},
		layerDef{"campaign.emit_ms", "ms"},
		layerDef{"dispatch.overhead_ms", "ms"},
		layerDef{"dispatch.requeued", "count"},
		layerDef{"trace.glue_ms", "ms"},
		layerDef{"trace.accounted_ms", "ms"},
		layerDef{"trace.trial_ms_p50", "ms"},
		layerDef{"trace.untraced_trial_ms_mean", "ms"},
		layerDef{"trace.overhead_ms", "ms"},
	)
}
