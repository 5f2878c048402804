package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"teeperf/internal/analyzer"
	"teeperf/internal/flamegraph"
	"teeperf/internal/probe"
	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// flameRep is one recording's measurements.
type flameRep struct {
	ratio   float64 // instrumented over native time
	toFlame float64 // seconds from Stop's return to the closed SVG
	peakMB  float64

	probeNsPerEvent float64
	dropped         uint64

	bundleBytes                        float64
	entries                            float64
	persist, load, analyze, fold, rend layerCall
	stacks                             int
	svgBytes                           float64
}

// flamePath is the paper's stages 1-4: the application recorded under a
// two-shard, TSC-counter recorder, and each recording run through the
// offline pipeline Persist, ReadBundleFile, AnalyzeWith, Folded and
// RenderSVG.
type flamePath struct {
	e      *env
	sz     sizes
	dir    string
	bursts [goroutines]int
	want   map[string]uint64
	native [goroutines]burst
	reps   []flameRep
}

func newFlamePath(e *env, w workload, sz sizes) (*flamePath, error) {
	f := &flamePath{e: e, sz: sz, dir: filepath.Join(e.dir, "flame")}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return nil, err
	}
	f.bursts = e.segBursts(int(float64(w.flameEntries) * sz.flameScale))
	f.want = e.shape.expectedCalls(f.bursts)
	for g := range f.native {
		var err error
		if f.native[g], err = e.app.newBurst(g, probe.Nop{}, e.tab.Addr, e.seed); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// round profiles recordings until budget is spent (at least one) and
// returns the round's medians of the end-to-end metrics.
func (f *flamePath) round(budget time.Duration, tr *tracer, parent int, r *passResult) (map[string]metric, error) {
	id := tr.begin("bench.flame", parent)
	defer tr.finish(id)
	first := len(f.reps)
	deadline := time.Now().Add(budget)
	for len(f.reps) == first || time.Now().Before(deadline) {
		rep, err := f.once(tr, id, r)
		if err != nil {
			return nil, err
		}
		f.reps = append(f.reps, rep)
	}
	reps := f.reps[first:]
	return map[string]metric{
		"time_to_flame_s": {medianOf(reps, func(x flameRep) float64 { return x.toFlame }), "s"},
		"peak_rss_mb":     {medianOf(reps, func(x flameRep) float64 { return x.peakMB }), "MB"},
	}, nil
}

// finish reports the per-layer metrics over every recording of the pass.
func (f *flamePath) finish(r *passResult) {
	reps := f.reps
	pick := func(fn func(flameRep) float64) float64 { return medianOf(reps, fn) }
	perEntry := func(fn func(flameRep) float64) float64 {
		return pick(func(x flameRep) float64 { return fn(x) / x.entries })
	}
	mbps := func(fn func(flameRep) layerCall) float64 {
		return pick(func(x flameRep) float64 { return x.bundleBytes / 1e6 / fn(x).dur.Seconds() })
	}
	var dropped uint64
	for _, rep := range reps {
		dropped += rep.dropped
	}
	r.layer["record_overhead_x"] = metric{pick(func(x flameRep) float64 { return x.ratio }), "x"}
	r.layer["probe.ns_per_event"] = metric{pick(func(x flameRep) float64 { return x.probeNsPerEvent }), "ns"}
	r.layer["probe.dropped"] = metric{float64(dropped), "count"}
	r.layer["recorder.persist_mb_per_s"] = metric{mbps(func(x flameRep) layerCall { return x.persist }), "MB/s"}
	r.layer["recorder.load_mb_per_s"] = metric{mbps(func(x flameRep) layerCall { return x.load }), "MB/s"}
	r.layer["recorder.load_alloc_bytes_per_entry"] = metric{perEntry(func(x flameRep) float64 { return float64(x.load.alloc.bytes) }), "B"}
	r.layer["analyzer.ns_per_entry"] = metric{perEntry(func(x flameRep) float64 { return float64(x.analyze.dur) }), "ns"}
	r.layer["analyzer.alloc_bytes_per_entry"] = metric{perEntry(func(x flameRep) float64 { return float64(x.analyze.alloc.bytes) }), "B"}
	r.layer["analyzer.allocs_per_entry"] = metric{perEntry(func(x flameRep) float64 { return float64(x.analyze.alloc.objects) }), "count"}
	r.layer["analyzer.folded_stacks"] = metric{pick(func(x flameRep) float64 { return float64(x.stacks) }), "count"}
	r.layer["flamegraph.fold_ms"] = metric{pick(func(x flameRep) float64 { return ms(x.fold.dur) }), "ms"}
	r.layer["flamegraph.render_ms"] = metric{pick(func(x flameRep) float64 { return ms(x.rend.dur) }), "ms"}
	r.layer["flamegraph.svg_bytes"] = metric{pick(func(x flameRep) float64 { return x.svgBytes }), "B"}
}

func medianOf(reps []flameRep, f func(flameRep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, rep := range reps {
		xs[i] = f(rep)
	}
	return median(xs)
}

// timeLoad runs bursts[g] bursts of runs[g] on each goroutine, inside a
// span per goroutine. It returns each goroutine's time in seconds and the
// number of bursts whose checksum differed from the exact one.
func (f *flamePath) timeLoad(runs [goroutines]burst, name string, tr *tracer, parent int) ([goroutines]float64, int) {
	var secs [goroutines]float64
	bad := runLoad(func(g int) int {
		mismatches := 0
		lc, _ := tr.call(name, parent, false, func() error {
			for i := 0; i < f.bursts[g]; i++ {
				if runs[g]() != f.e.shape.checksum[g] {
					mismatches++
				}
			}
			return nil
		})
		secs[g] = lc.dur.Seconds()
		return mismatches
	})
	return secs, bad
}

// once makes one recording and runs it through the pipeline. The seeded
// bursts run sz.loops times natively (probe.Nop) and sz.loops times
// instrumented, alternating which side goes first; the log is reset before
// each instrumented run, so the recording is the last of them. Both sides
// are timed the
// same way: a goroutine's time is its fastest run, since scheduler noise
// only adds time, and a side's time is the sum over the goroutines. Times
// are per goroutine, not wall clock, so a run whose two goroutines happen
// to share one CPU is not counted as twice as slow. The overhead ratio is
// the instrumented over the native time.
func (f *flamePath) once(tr *tracer, parent int, r *passResult) (flameRep, error) {
	var rep flameRep
	id := tr.begin("bench.flame_rep", parent)
	defer tr.finish(id)

	entries := f.e.entriesOf(f.bursts)
	rec, err := recorder.New(f.e.tab,
		recorder.WithCapacity(2*entries+1024),
		recorder.WithShards(goroutines),
		recorder.WithCounterMode(recorder.CounterTSC))
	if err != nil {
		return rep, err
	}
	var runs [goroutines]burst
	for g := range runs {
		if runs[g], err = f.e.app.newBurst(g, rec.Thread(), rec.AddrOf, f.e.seed); err != nil {
			return rep, err
		}
	}
	if err := rec.Start(); err != nil {
		return rep, err
	}
	runtime.GC() // collect the previous recording outside the timed runs
	var (
		native, inst [goroutines]float64
		recorded     bool
	)
	fastest := func(best *[goroutines]float64, secs [goroutines]float64) {
		for g, s := range secs {
			if best[g] == 0 || s < best[g] {
				best[g] = s
			}
		}
	}
	for k := 0; k < 2*f.sz.loops; k++ {
		if (k+k/2)%2 == 0 { // native, instrumented, instrumented, native, ...
			secs, bad := f.timeLoad(f.native, "app.native_burst", tr, id)
			r.check(bad == 0, "flame: %d native bursts returned a wrong checksum", bad)
			fastest(&native, secs)
			continue
		}
		if recorded {
			rec.Log().Reset()
		}
		recorded = true
		secs, bad := f.timeLoad(runs, "probe.record", tr, id)
		r.check(bad == 0, "flame: instrumented checksum differs from native in %d bursts", bad)
		r.attempted += int64(entries)
		fastest(&inst, secs)
	}
	var nativeSecs, instSecs float64
	for g := 0; g < goroutines; g++ {
		nativeSecs += native[g]
		instSecs += inst[g]
	}
	rep.ratio = instSecs / nativeSecs
	rep.probeNsPerEvent = (instSecs - nativeSecs) * 1e9 / float64(entries)

	if err := resetPeakRSS(); err != nil {
		return rep, err
	}
	if _, err := tr.call("recorder.Stop", id, false, rec.Stop); err != nil {
		return rep, err
	}
	st := rec.Stats()
	rep.dropped = st.Dropped
	r.failed += int64(st.Dropped)
	r.check(st.Dropped == 0, "flame: %d events dropped", st.Dropped)

	r.attempted++
	prof, folded, err := rep.pipeline(rec, f.dir, tr, id)
	if err != nil {
		r.failed++
		return rep, err
	}
	peak, err := peakRSS()
	if err != nil {
		return rep, err
	}
	rep.peakMB = float64(peak) / (1 << 20)

	ok := checkCalls(r, "flame", prof, f.want)
	var sum uint64
	for _, v := range folded {
		sum += v
	}
	r.check(sum == prof.TotalTicks, "flame: folded weights sum to %d, root inclusive time is %d", sum, prof.TotalTicks)
	if !ok || sum != prof.TotalTicks {
		r.failed++
	}
	return rep, nil
}

// pipeline is the timed path from a stopped recorder to a flame graph on
// disk.
func (rep *flameRep) pipeline(rec *recorder.Recorder, dir string, tr *tracer, parent int) (*analyzer.Profile, map[string]uint64, error) {
	id := tr.begin("bench.pipeline", parent)
	defer tr.finish(id)
	start := time.Now()
	bundle := filepath.Join(dir, "run.teeperf")
	svgPath := filepath.Join(dir, "run.svg")

	var err error
	if rep.persist, err = tr.call("recorder.Persist", id, false, func() error { return rec.Persist(bundle) }); err != nil {
		return nil, nil, err
	}
	var (
		tab *symtab.Table
		log *shmlog.Log
	)
	if rep.load, err = tr.call("recorder.ReadBundleFile", id, true, func() error {
		tab, log, err = recorder.ReadBundleFile(bundle)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var prof *analyzer.Profile
	if rep.analyze, err = tr.call("analyzer.AnalyzeWith", id, true, func() error {
		prof, err = analyzer.AnalyzeWith(log, tab, analyzer.Options{})
		return err
	}); err != nil {
		return nil, nil, err
	}
	var folded map[string]uint64
	rep.fold, _ = tr.call("flamegraph.fold", id, false, func() error {
		folded = prof.Folded()
		return nil
	})
	if rep.rend, err = tr.call("flamegraph.RenderSVG", id, false, func() error {
		return renderSVG(svgPath, folded)
	}); err != nil {
		return nil, nil, err
	}
	rep.toFlame = time.Since(start).Seconds()

	for path, dst := range map[string]*float64{bundle: &rep.bundleBytes, svgPath: &rep.svgBytes} {
		info, err := os.Stat(path)
		if err != nil {
			return nil, nil, err
		}
		*dst = float64(info.Size())
		// Removing the file drops its dirty pages, so their writeback does
		// not compete with the paths timed next.
		if err := os.Remove(path); err != nil {
			return nil, nil, err
		}
	}
	rep.entries = float64(log.Len())
	rep.stacks = len(folded)
	return prof, folded, nil
}

func renderSVG(path string, folded map[string]uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := flamegraph.RenderSVG(bw, folded, flamegraph.SVGOptions{Title: "perfbench"}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// checkCalls compares the profile's per-function call counts with the
// application's exact ones.
func checkCalls(r *passResult, what string, prof *analyzer.Profile, want map[string]uint64) bool {
	ok := true
	var total uint64
	for name, n := range want {
		f, found := prof.Func(name)
		if !found || f.Calls != n {
			r.check(false, "%s: %s has %d calls, the application made %d", what, name, f.Calls, n)
			ok = false
		}
		total += n
	}
	var got uint64
	for _, f := range prof.Funcs() {
		got += f.Calls
	}
	if got != total {
		r.check(false, "%s: profile has %d calls in all, the application made %d", what, got, total)
		ok = false
	}
	return ok
}
