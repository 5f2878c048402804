package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinySizes shrinks every input so a workload runs in about a second per
// pass.
func tinySizes() sizes {
	return sizes{
		rounds:         2,
		flameScale:     0.02,
		loops:          2,
		liveEventRate:  50_000,
		segEntries:     4_000,
		histEntryRate:  40_000,
		prefillEntries: 20_000,
		cacheBlocks:    4,
		compactEvery:   100 * time.Millisecond,
		windowTicks:    1024,
		setups:         2,
	}
}

// TestWorkloads runs every workload at a tiny size on two seeds, untraced
// and traced, and checks that the output checks pass and that the result
// line carries every metric BENCHMARK.json names, with its unit.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	base := t.TempDir()
	for _, sw := range spec.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the command", sw.Name)
		}
		for _, seed := range []uint64{1, 2} {
			for _, trace := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/trace=%v", w.name, seed, trace), func(t *testing.T) {
					var out bytes.Buffer
					res, err := run(w, tinySizes(), seed, 2, trace, base, &out)
					if err != nil {
						t.Fatalf("run: %v\n%s", err, out.String())
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
					}
					want := spec.EndToEnd
					if trace {
						want = spec.PerLayer
					}
					for _, m := range want {
						got, ok := res.Metrics[m.Name]
						if !ok {
							t.Errorf("metric %s missing", m.Name)
							continue
						}
						if got.Unit != m.Unit {
							t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
						}
						if !strings.Contains(out.String(), m.Name) {
							t.Errorf("metric %s not printed", m.Name)
						}
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
					}
					line, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					var keys map[string]json.RawMessage
					if err := json.Unmarshal(line, &keys); err != nil {
						t.Fatal(err)
					}
					if len(keys) != 4 {
						t.Errorf("result line has keys %v", keys)
					}
				})
			}
		}
	}
}

// TestCLIRejectsBadArguments checks the usage exit code.
func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "live-fleet", "--trace", "2"},
		{"--workload", "live-fleet", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := cliMain(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}
