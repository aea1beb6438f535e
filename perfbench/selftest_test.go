package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSelfTest builds the benchmark, runs every workload of
// BENCHMARK.json at toy size untraced and traced, and fails if any
// metric the file names is missing from the result line, carries
// another unit, or has no sample count in the record line.
func TestSelfTest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if wl, ok := workloads[w.Name]; ok && wl.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json gives why %q, the benchmark %q", w.Name, w.Why, wl.why)
		}
	}
	sort.Strings(names)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(names, ",") {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark has %v", names, got)
	}

	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	scratch := t.TempDir()
	for _, w := range names {
		for _, trace := range []string{"0", "1"} {
			want := map[string]string{}
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "--workload", w, "--seed", "7", "--seconds", "1",
					"--trace", trace, "--toy", "--scratch", scratch)
				var stdout bytes.Buffer
				cmd.Stdout = &stdout
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("run: %v", err)
				}
				checkOutput(t, stdout.String(), want)
			})
		}
	}
}

func checkOutput(t *testing.T, stdout string, want map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) < 2 {
		t.Fatalf("want a record line and a result line, got %q", stdout)
	}
	var result map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range result {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %s", got)
	}
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	var rec struct {
		Record struct {
			Samples map[string]*int `json:"samples"`
		} `json:"record"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatal(err)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case rec.Record.Samples[name] == nil:
			t.Errorf("metric %s has no sample count", name)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}
