package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"teeperf/internal/counter"
	"teeperf/internal/probe"
	"teeperf/internal/profilestore"
	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// workload is one seeded traffic shape. Every workload runs the profiler's
// three user-facing paths — record to flame graph, live fleet scrape, and
// history store. The flame and history paths profile the workload's own
// application; the live fleet always runs the shallow fleet application.
// The workload's named path gets the largest share of the measured time
// and the largest inputs.
type workload struct {
	name string
	app  func() app
	// liveApp writes the live fleet's sessions when it is not app.
	liveApp func() app
	// flame, live and hist are the shares of --seconds given to each path.
	flame, live, hist float64
	// flameEntries is the size of each recording the flame path profiles.
	flameEntries int
}

var workloads = []workload{
	{name: "offline-flame", app: stressApp, liveApp: shallowApp, flame: 0.4, live: 0.35, hist: 0.25, flameEntries: 1_000_000},
	{name: "live-fleet", app: shallowApp, flame: 0.25, live: 0.5, hist: 0.25, flameEntries: 500_000},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are the input sizes and rates shared by every workload. Where they
// come from is recorded in README.md.
type sizes struct {
	// rounds splits the measured time: each round runs every path for its
	// share. A timing metric, latency percentiles included, is the median
	// of its per-round values, so a slow stretch of the host spoils one
	// round, not the run.
	rounds int
	// flameScale multiplies the workload's flameEntries.
	flameScale float64
	// Each recording is timed over loops native and loops instrumented
	// runs of the same seeded bursts, alternating.
	loops int
	// The liveSessions mmap'd logs receive liveEventRate events per second
	// in total.
	liveEventRate float64
	// The history store is prefilled with prefillEntries (at least ten
	// times its block cache), then takes segments of about segEntries at
	// histEntryRate entries per second while the compactor runs every
	// compactEvery. A query window spans windowTicks counter ticks, which
	// on the virtual counter the segments are recorded on is as many
	// entries.
	segEntries     int
	histEntryRate  float64
	prefillEntries int
	cacheBlocks    int // 0 keeps profilestore's default
	compactEvery   time.Duration
	windowTicks    uint64
	// setups is how many times a pass builds its inputs (setup_s is the
	// median).
	setups int
}

// Program defaults and measured rates the traffic is derived from.
const (
	// dbBenchEventRate is the event rate of one instrumented kvstore
	// db_bench session: 80k events over about 1 s of work (EXPERIMENTS.md).
	dbBenchEventRate = 80_000
	// storeCacheEntries is profilestore's default block cache: 256 blocks
	// of 512 entries.
	storeCacheEntries = 256 * 512
	// agentInterval is the agent's default scrape interval; the agent runs
	// the store's compactor at four times its interval.
	agentInterval = 250 * time.Millisecond
)

func defaultSizes() sizes {
	return sizes{
		rounds:     5,
		flameScale: 1,
		loops:      5,
		// Every session of the fleet is as busy as a db_bench run.
		liveEventRate: liveSessions * dbBenchEventRate,
		// A segment is one finished db_bench session, and the store takes
		// what the whole fleet writes.
		segEntries:     dbBenchEventRate,
		histEntryRate:  liveSessions * dbBenchEventRate,
		prefillEntries: 10 * storeCacheEntries,
		compactEvery:   4 * agentInterval,
		windowTicks:    1024,
		setups:         3,
	}
}

const (
	// liveSessions is the size of the live fleet.
	liveSessions = 8
	// scrapeTick is the agent's scrape interval in the live path. The
	// agent's default (agentInterval) would give about 60 samples in a
	// run's live share, far too few for a tail percentile; at 10 ms a
	// 30-second run takes 1,000 to 1,500 scrapes of about 6,400 entries.
	// A 2 ms tick makes a scrape so short (0.15 ms) that its tail is set
	// by how often the host disturbs it: the p99 read two to six times
	// the p50.
	scrapeTick = 10 * time.Millisecond
	// histPID is the process ID stamped into every history segment: all
	// segments are one session shape, so any window may span them.
	histPID = 4242
)

// entryBytes is the size of one log entry (three 64-bit words).
const entryBytes = 24

// liveSession is one mmap'd shared log of the live fleet, with the probe
// thread and burst of the load-generator goroutine that owns it.
type liveSession struct {
	path   string
	name   string
	g      int
	log    *shmlog.Log
	burst  burst
	bursts int
}

// env is everything a pass builds before timing starts.
type env struct {
	dir   string
	seed  uint64
	tab   *symtab.Table
	app   app
	shape shape
	// live and liveShape are the application of the live sessions and its
	// exact shape.
	live      app
	liveShape shape

	store    *profilestore.Store
	storeDir string
	prefill  []*shmlog.Log // history segments ingested in setup
	segs     []*shmlog.Log // history segments ingested while timed
	// segsPerRound is how many of segs each history round ingests.
	segsPerRound int

	sessions []*liveSession
}

// setup builds the inputs of one pass: the application's exact shape, the
// history segments and the prefilled store, and the live sessions.
func setup(w workload, sz sizes, seed uint64, seconds float64, dir string) (*env, error) {
	e := &env{dir: dir, seed: seed, tab: symtab.New(), app: w.app()}
	e.live = e.app
	if w.liveApp != nil {
		e.live = w.liveApp()
	}
	if err := e.build(w, sz, seconds); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) build(w workload, sz sizes, seconds float64) error {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	if err := e.app.register(e.tab); err != nil {
		return err
	}
	var err error
	if e.shape, err = measureShape(e.app, e.tab, e.seed); err != nil {
		return err
	}
	e.liveShape = e.shape
	if w.liveApp != nil {
		if err := e.live.register(e.tab); err != nil {
			return err
		}
		if e.liveShape, err = measureShape(e.live, e.tab, e.seed); err != nil {
			return err
		}
	}
	if err := e.setupHistory(sz, seconds*w.hist); err != nil {
		return fmt.Errorf("setup history: %w", err)
	}
	if err := e.setupLive(sz, seconds*w.live); err != nil {
		return fmt.Errorf("setup live sessions: %w", err)
	}
	return nil
}

// segBursts is the bursts per goroutine that make a recording of about n
// entries.
func (e *env) segBursts(n int) [goroutines]int {
	var b [goroutines]int
	for g := range b {
		b[g] = max(1, int(math.Round(float64(n)/float64(goroutines*e.shape.events[g]))))
	}
	return b
}

func (e *env) entriesOf(b [goroutines]int) int {
	n := 0
	for g := range b {
		n += b[g] * e.shape.events[g]
	}
	return n
}

// setupHistory records the prefill and the segments the history path will
// ingest over dur seconds, and prefills the store.
func (e *env) setupHistory(sz sizes, dur float64) error {
	bursts := e.segBursts(sz.segEntries)
	per := e.entriesOf(bursts)
	nPrefill := (sz.prefillEntries + per - 1) / per
	// Every round ingests the same number of segments, whatever the seed
	// makes their exact size, so every seed takes the store through the
	// same tables and compactions.
	e.segsPerRound = max(1, int(math.Round(dur/float64(sz.rounds)*sz.histEntryRate/float64(per))))
	nPhase := sz.rounds * e.segsPerRound

	// One counter for every segment, as one process's successive
	// rotations share one: segment windows follow each other in time. The
	// virtual counter ticks once per event, so the stored counter range,
	// and with it every query window, depends on the seed alone and not on
	// how fast the host recorded.
	src := counter.NewVirtual(1)
	for i := 0; i < nPrefill+nPhase; i++ {
		seg, err := e.recordSegment(src, bursts)
		if err != nil {
			return err
		}
		if i < nPrefill {
			e.prefill = append(e.prefill, seg)
		} else {
			e.segs = append(e.segs, seg)
		}
	}

	e.storeDir = filepath.Join(e.dir, "store")
	st, err := profilestore.Open(e.storeDir, profilestore.Options{CacheBlocks: sz.cacheBlocks})
	if err != nil {
		return err
	}
	e.store = st
	for i, seg := range e.prefill {
		if _, err := st.IngestLog(seg, e.tab, fmt.Sprintf("prefill-%d", i)); err != nil {
			return err
		}
	}
	return st.Compact()
}

// recordSegment records bursts[g] bursts of each goroutine under a fresh
// recorder on the shared counter.
func (e *env) recordSegment(src counter.Source, bursts [goroutines]int) (*shmlog.Log, error) {
	rec, err := recorder.New(e.tab,
		recorder.WithCapacity(2*e.entriesOf(bursts)+1024),
		recorder.WithShards(goroutines),
		recorder.WithCounterSource(src),
		recorder.WithPID(histPID))
	if err != nil {
		return nil, err
	}
	var runs [goroutines]burst
	for g := range runs {
		if runs[g], err = e.app.newBurst(g, rec.Thread(), rec.AddrOf, e.seed); err != nil {
			return nil, err
		}
	}
	if err := rec.Start(); err != nil {
		return nil, err
	}
	bad := runLoad(func(g int) int {
		mismatches := 0
		for i := 0; i < bursts[g]; i++ {
			if runs[g]() != e.shape.checksum[g] {
				mismatches++
			}
		}
		return mismatches
	})
	if err := rec.Stop(); err != nil {
		return nil, err
	}
	if bad != 0 {
		return nil, fmt.Errorf("segment: %d bursts changed their checksum under probes", bad)
	}
	if d := rec.Stats().Dropped; d != 0 {
		return nil, fmt.Errorf("segment: %d events dropped", d)
	}
	return rec.Log(), nil
}

// liveRate is goroutine g's burst rate in the live fleet: its half of the
// total event rate.
func (e *env) liveRate(sz sizes, g int) float64 {
	return sz.liveEventRate / goroutines / float64(e.liveShape.events[g])
}

// setupLive creates the fleet's mmap'd sessions, each sized for every burst
// its goroutine can append in dur seconds, and publishes their symbols.
func (e *env) setupLive(sz sizes, dur float64) error {
	dir := filepath.Join(e.dir, "live")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < liveSessions; i++ {
		g := i % goroutines
		owned := (liveSessions - g + goroutines - 1) / goroutines
		capacity := (int(dur*e.liveRate(sz, g))/owned + sz.rounds + 2) * e.liveShape.events[g]
		s := &liveSession{path: filepath.Join(dir, fmt.Sprintf("app-%d.shm", i)), g: g}
		log, err := shmlog.CreateFile(s.path, capacity,
			shmlog.WithPID(uint64(os.Getpid())),
			shmlog.WithProfilerAddr(e.tab.AnchorAddr()))
		if err != nil {
			return err
		}
		s.log = log
		e.sessions = append(e.sessions, s)
		if err := recorder.WriteSymsFile(recorder.SymsPath(s.path), e.tab); err != nil {
			return err
		}
		rt, err := probe.New(log, counter.NewTSC())
		if err != nil {
			return err
		}
		if s.burst, err = e.live.newBurst(g, rt.Thread(), e.tab.Addr, e.seed); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) close() {
	if e.store != nil {
		e.store.Close()
	}
	for _, s := range e.sessions {
		s.log.Close()
	}
	os.RemoveAll(e.dir)
}

// runLoad runs fn on each load-generator goroutine, waits for all of them
// and returns the sum of their results.
func runLoad(fn func(g int) int) int {
	var (
		wg      sync.WaitGroup
		results [goroutines]int
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = fn(g)
		}(g)
	}
	wg.Wait()
	total := 0
	for _, r := range results {
		total += r
	}
	return total
}

// passResult collects one pass's metrics, operation counts and failed
// output checks.
type passResult struct {
	e2e       map[string]metric
	layer     map[string]metric
	attempted int64
	failed    int64
	problems  []string
	notes     []string
}

// note records a line for the human-readable report.
func (r *passResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *passResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runPass builds the inputs sz.setups times (setup_s is the median), then
// runs sz.rounds rounds of the flame, live and history paths, each for its
// share of seconds, and finally checks every output.
func runPass(w workload, sz sizes, seed uint64, seconds float64, tr *tracer, dir string) (*passResult, error) {
	r := &passResult{e2e: make(map[string]metric), layer: make(map[string]metric)}
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < sz.setups; i++ {
		if e != nil {
			e.close()
		}
		id := tr.begin("bench.setup", 0)
		start := time.Now()
		var err error
		e, err = setup(w, sz, seed, seconds, filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		setups = append(setups, time.Since(start).Seconds())
		tr.finish(id)
		if err != nil {
			return nil, err
		}
	}
	defer e.close()
	r.e2e["setup_s"] = metric{median(setups), "s"}

	fl, err := newFlamePath(e, w, sz)
	if err != nil {
		return nil, err
	}
	lv := newLivePath(e, sz)
	defer lv.close()
	hs := newHistoryPath(e, sz)

	slice := func(share float64) time.Duration {
		return time.Duration(share * seconds / float64(sz.rounds) * float64(time.Second))
	}
	perRound := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < sz.rounds; i++ {
		id := tr.begin("bench.round", 0)
		fm, err := fl.round(slice(w.flame), tr, id, r)
		if err != nil {
			return nil, fmt.Errorf("flame path: %w", err)
		}
		lm := lv.round(slice(w.live), tr, id)
		hm, err := hs.round(slice(w.hist), tr, id, r)
		if err != nil {
			return nil, fmt.Errorf("history path: %w", err)
		}
		tr.finish(id)
		for _, m := range []map[string]metric{fm, lm, hm} {
			for name, v := range m {
				perRound[name] = append(perRound[name], v.Value)
				units[name] = v.Unit
			}
		}
	}
	for name, vs := range perRound {
		r.e2e[name] = metric{median(vs), units[name]}
	}

	fl.finish(r)
	lv.finish(r)
	if err := hs.finish(tr, r); err != nil {
		return nil, fmt.Errorf("history path: %w", err)
	}
	return r, nil
}
