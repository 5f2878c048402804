// Command perfbench is the repository's end-to-end benchmark. It drives one
// seeded workload through the profiler's layers — probe, recorder (bundles
// through shmlog), analyzer, flamegraph, agent and profilestore — checks
// every output, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). The last line of its
// standard output is the result as one JSON object.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload live-fleet --seed 7 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 for a traced run that reports per-layer metrics")
	root := fs.String("root", ".", "checkout root; run files go under <root>/.bench_build/perfbench")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	base := filepath.Join(*root, ".bench_build", "perfbench")
	res, err := run(w, defaultSizes(), *seed, *seconds, *trace == 1, base, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// run measures workload w. An untraced run makes one pass of seconds and
// reports its end-to-end metrics. A traced run makes an untraced and then a
// traced pass of half as long each; it reports the traced pass's per-layer
// metrics, writes the spans and the self-time summary to a trace file, and
// prints the tracing overhead as traced minus untraced.
func run(w workload, sz sizes, seed uint64, seconds int, trace bool, base string, out io.Writer) (*result, error) {
	host := currentHost(w.name, seed, seconds, trace)
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(out, "host %s\n", hostLine)

	dir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	passSeconds := float64(seconds)
	if trace {
		passSeconds /= 2
	}
	untraced, err := runPass(w, sz, seed, passSeconds, nil, filepath.Join(dir, "untraced"))
	if err != nil {
		return nil, err
	}
	report(out, "untraced", untraced, untraced.e2e)
	res := &result{Attempted: untraced.attempted, Failed: untraced.failed, Metrics: untraced.e2e}
	problems := untraced.problems
	if trace {
		tr := newTracer()
		traced, err := runPass(w, sz, seed, passSeconds, tr, filepath.Join(dir, "traced"))
		if err != nil {
			return nil, err
		}
		report(out, "traced", traced, traced.layer)
		stats := selfTimes(tr.spans)
		writeSummary(out, stats, untraced.e2e, traced.e2e)
		overhead := make(map[string]float64)
		for name, m := range untraced.e2e {
			overhead[name] = traced.e2e[name].Value - m.Value
		}
		traceDir := filepath.Join(base, "traces")
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := writeTraceFile(path, traceReport{Host: host, Spans: tr.spans, Summary: stats, Overhead: overhead}); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace written to %s\n", path)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Metrics = traced.layer
		problems = append(problems, traced.problems...)
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
	return res, nil
}

// report prints a pass's notes and metrics, one per line with its unit.
func report(out io.Writer, pass string, r *passResult, metrics map[string]metric) {
	for _, n := range r.notes {
		fmt.Fprintf(out, "%s %s\n", pass, n)
	}
	for _, name := range sortedKeys(metrics) {
		m := metrics[name]
		fmt.Fprintf(out, "%s %-40s %16.6f %s\n", pass, name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%s attempted %d, failed %d, %d checks failed\n", pass, r.attempted, r.failed, len(r.problems))
}
