// Command perfbench is the repository benchmark. It runs one named
// workload of the simulator end to end and prints its metrics, with
// units, as one JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	perfbench --workload sweep-sync --seed 1 --seconds 18 --trace 0
//
// The process started with those flags is the parent. It runs the
// workload in a child process of its own (re-exec with --child), so
// peak RSS and set-up cost belong to that workload alone, and it never
// runs two children at once. With --trace 1 the parent runs the
// untraced child, then a traced child that times each layer call from
// outside (see trace.go), asserts that both children produced the same
// simulated results trial for trial, and reports per-layer metrics.
// On million-packed it also runs a third, fresh child that measures the
// packed engine's resident bytes per node.
//
// Workloads, metrics and the reasons behind them are described in
// README.md next to this file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	// Link the full protocol set into the registry.
	_ "stoneage/internal/protocol/std"
)

// options are the command-line settings shared by parent and children.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	child    string // "", "plain", "traced" or "footprint"
	toy      bool   // tiny sizes, for the self-test
	scratch  string // directory for sweep work directories and span dumps
}

func main() {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "nominal measured seconds (fixes the trial count; see README.md)")
	fs.IntVar(&o.trace, "trace", 0, "1 adds the traced run and reports per-layer metrics")
	fs.StringVar(&o.child, "child", "", "internal: run the workload in this process (plain, traced or footprint)")
	fs.BoolVar(&o.toy, "toy", false, "run at toy size (self-test)")
	fs.StringVar(&o.scratch, "scratch", ".bench_build", "directory for sweep work directories and span dumps")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.child != "" {
		res, err := runChild(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(drive(w, o))
}

// spawn runs one child process of this binary and decodes its result.
// The child's diagnostics pass through on standard error.
func spawn(o options, mode string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--child", mode, "--workload", o.workload,
		"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
		"--scratch", o.scratch, fmt.Sprintf("--toy=%v", o.toy))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s child: decoding result: %w", mode, err)
	}
	return &res, nil
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// drive runs the workload's children and prints the record line and
// the result line. It returns the process exit code.
func drive(w *workload, o options) int {
	plain, err := spawn(o, "plain")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	problems := append([]string(nil), plain.Errors...)
	metrics := endToEnd(plain)

	var traced, foot *childResult
	if o.trace == 1 {
		if traced, err = spawn(o, "traced"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		problems = append(problems, traced.Errors...)
		problems = append(problems, compareTrials(plain, traced)...)
		if w.footprint {
			if foot, err = spawn(o, "footprint"); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			problems = append(problems, foot.Errors...)
		}
		metrics = perLayer(plain, traced, foot)
	}

	rec := record(w, o, plain, traced, foot, metrics, problems)
	if err := printLine(rec); err != nil {
		return 1
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out := map[string]any{
		"correct":   len(problems) == 0,
		"attempted": plain.Attempted,
		"failed":    plain.Failed,
		"metrics":   metrics,
	}
	if err := printLine(out); err != nil {
		return 1
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}

func printLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	w.Write(b)
	w.WriteByte('\n')
	return w.Flush()
}

// endToEnd derives the user-visible metrics from the untraced child.
func endToEnd(c *childResult) map[string]metric {
	p90, _ := tailPercentile(c.SampleMS)
	m := map[string]metric{
		"setup_s":          {median(c.SetupS), "s", len(c.SetupS)},
		"trials_per_s":     {median(c.TrialsPerS), "trials/s", len(c.TrialsPerS)},
		"trial_ms_p50":     {quantile(c.SampleMS, 0.5), "ms", len(c.SampleMS)},
		"trial_ms_p90":     {p90, "ms", len(c.SampleMS)},
		"valid_share":      {float64(c.Attempted-c.Failed) / float64(c.Attempted), "share", c.Attempted},
		"peak_rss_mb":      {c.PeakRSSMB, "MB", 1},
		"sim_time_mean":    {c.SimTime / float64(max(c.Converged, 1)), "sim-time", c.Converged},
		"sim_events_per_s": {median(c.EventsPerS), "events/s", len(c.EventsPerS)},
	}
	return m
}

// tailPercentile returns the 90th percentile of xs when at least ten
// samples lie beyond it, and otherwise the median (so the metric is
// always present but never claims a tail the run cannot resolve). The
// flag reports which one was returned.
func tailPercentile(xs []float64) (float64, bool) {
	if beyond90(len(xs)) >= 10 {
		return quantile(xs, 0.9), true
	}
	return quantile(xs, 0.5), false
}

// beyond90 is the number of samples strictly above the 90th
// percentile's interpolation point.
func beyond90(n int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(0.9*float64(n-1)))
}

// perLayer derives the per-layer metrics from the traced child (and the
// footprint child on million-packed). Layers a workload does not reach
// report 0.
func perLayer(plain, traced, foot *childResult) map[string]metric {
	m := map[string]metric{}
	for _, d := range layerDefs {
		m[d.name] = metric{0, d.unit, 0}
	}
	for name, v := range traced.Layers {
		m[name] = metric{v, layerUnits[name], len(traced.SampleMS)}
	}
	if foot != nil {
		if v, ok := foot.Layers["engine.packed.bytes_per_node"]; ok {
			m["engine.packed.bytes_per_node"] = metric{v, "B", 1}
		}
	}
	up50, tp50 := quantile(plain.SampleMS, 0.5), quantile(traced.SampleMS, 0.5)
	m["trace.overhead_ms"] = metric{tp50 - up50, "ms", len(traced.SampleMS)}
	m["trace.trial_ms_p50"] = metric{tp50, "ms", len(traced.SampleMS)}
	m["trace.untraced_trial_ms_mean"] = metric{mean(plain.SampleMS), "ms", len(plain.SampleMS)}
	return m
}

// compareTrials asserts that the traced child reproduced the untraced
// child's simulated results: rounds, time units, steps and channel
// counts of every trial in the trial set.
func compareTrials(a, b *childResult) []string {
	if len(a.Trials) != len(b.Trials) {
		return []string{fmt.Sprintf("traced run recorded %d trials, untraced %d", len(b.Trials), len(a.Trials))}
	}
	var out []string
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			out = append(out, fmt.Sprintf("trial record %d differs: untraced %q, traced %q", i, a.Trials[i], b.Trials[i]))
			if len(out) == 5 {
				break
			}
		}
	}
	return out
}

// record is the run's self-description, printed on the line before the
// result: host, fixed worker counts, trial and sample counts, and the
// sample count behind every metric.
func record(w *workload, o options, plain, traced, foot *childResult, metrics map[string]metric, problems []string) map[string]any {
	samples := map[string]int{}
	for name, m := range metrics {
		samples[name] = m.samples
	}
	_, tail := tailPercentile(plain.SampleMS)
	rec := map[string]any{
		"workload": w.name,
		"why":      w.why,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.trace,
		"toy":      o.toy,
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"cpu":        cpuModel(),
			"go":         runtime.Version(),
		},
		"workload_info":   plain.Info,
		"attempted":       plain.Attempted,
		"failed":          plain.Failed,
		"timed_s":         plain.TimedS,
		"trial_samples":   len(plain.SampleMS),
		"setup_reps":      len(plain.SetupS),
		"trial_ms_p90_is": map[bool]string{true: "p90", false: "p50 (fewer than ten samples beyond p90)"}[tail],
		"samples":         samples,
		"problems":        problems,
	}
	if traced != nil {
		rec["traced_info"] = traced.Info
	}
	if foot != nil {
		rec["footprint_info"] = foot.Info
	}
	return map[string]any{"record": rec}
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
