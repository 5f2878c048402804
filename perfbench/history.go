package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"teeperf/internal/analyzer"
	"teeperf/internal/flamegraph"
	"teeperf/internal/profilestore"
	"teeperf/internal/shmlog"
)

const (
	// diffEvery makes every diffEvery-th read a Store.Diff: enough Diffs
	// for a steady diff_ms, while Store.Profile keeps most of the read time.
	diffEvery = 8
	// allocQueries are run after the load stops, one at a time, to take
	// the allocation deltas of Store.Profile without concurrent ingest.
	allocQueries = 16
)

// historyPath is the store under writes and reads together.
type historyPath struct {
	e      *env
	sz     sizes
	rng    *rand.Rand
	before profilestore.Stats

	next     int   // next segment of e.segs to ingest
	ingested []int // indexes of the acknowledged segments
	ingErr   []error
	ingest   time.Duration
	acked    int
	lag      time.Duration

	latencies    []float64 // every query's duration in ms
	p99s         []float64 // each round's query p99 in ms
	readOps      int
	readBad      int
	queryDur     time.Duration
	queryEntries int
	diffMs       []float64
}

func newHistoryPath(e *env, sz sizes) *historyPath {
	return &historyPath{e: e, sz: sz, rng: rand.New(rand.NewSource(int64(e.seed))), before: e.store.Stats()}
}

// round runs the store for budget with the background compactor on: one
// load-generator goroutine ingests the next e.segsPerRound prepared
// segments, evenly spaced over budget (open loop), the other runs a closed
// loop of time-travel queries over random windows, every diffEvery-th one
// a Diff.
func (h *historyPath) round(budget time.Duration, tr *tracer, parent int, r *passResult) (map[string]metric, error) {
	id := tr.begin("bench.history", parent)
	defer tr.finish(id)
	st := h.e.store
	runtime.GC() // collect the other paths' garbage outside the round
	st.StartCompactor(h.sz.compactEvery)
	defer st.StopCompactor()

	start := time.Now()
	deadline := start.Add(budget)
	var (
		wg    sync.WaitGroup
		rates []float64 // MB/s of each acknowledged ingest
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := h.e.segsPerRound
		for k := 0; k < n; k, h.next = k+1, h.next+1 {
			due := start.Add(time.Duration(k) * budget / time.Duration(n))
			sleepUntil(due)
			h.lag = max(h.lag, time.Since(due))
			var res profilestore.IngestResult
			lc, err := tr.call("profilestore.IngestLog", id, false, func() (err error) {
				res, err = st.IngestLog(h.e.segs[h.next], h.e.tab, fmt.Sprintf("seg-%d", h.next))
				return err
			})
			if err != nil {
				h.ingErr = append(h.ingErr, err)
				continue
			}
			h.ingested = append(h.ingested, h.next)
			h.ingest += lc.dur
			h.acked += res.Entries
			rates = append(rates, float64(res.Entries*entryBytes)/1e6/lc.dur.Seconds())
		}
	}()

	earlier := len(h.latencies)
	for q := 0; time.Now().Before(deadline); q++ {
		h.readOps++
		if q%diffEvery == diffEvery-1 {
			a0, a1 := h.window()
			b0, b1 := h.window()
			lc, err := tr.call("profilestore.Diff", id, false, func() error {
				_, _, _, err := st.Diff(profilestore.AllThreads, a0, a1, b0, b1)
				return err
			})
			if err != nil {
				h.readBad++
				r.check(false, "history: diff: %v", err)
				continue
			}
			h.diffMs = append(h.diffMs, ms(lc.dur))
			continue
		}
		from, to := h.window()
		p, lc, err := profile(st, from, to, tr, id, false)
		if err != nil {
			h.readBad++
			r.check(false, "history: query [%d, %d]: %v", from, to, err)
			continue
		}
		if !foldedConserves(p) {
			h.readBad++
			r.check(false, "history: query [%d, %d]: folded weights do not sum to the root time", from, to)
			continue
		}
		h.latencies = append(h.latencies, ms(lc.dur))
		h.queryDur += lc.dur
		h.queryEntries += windowEntries(p)
	}
	wg.Wait()
	if queries := len(h.latencies) - earlier; len(rates) == 0 || queries == 0 {
		return nil, fmt.Errorf("round ran %d ingests and %d queries", len(rates), queries)
	}
	lat := h.latencies[earlier:]
	h.p99s = append(h.p99s, quantile(lat, 0.99))
	return map[string]metric{
		"ingest_mb_per_s": {median(rates), "MB/s"},
		"query_p50_ms":    {quantile(lat, 0.5), "ms"},
	}, nil
}

// finish measures query allocations with the load stopped (traced pass
// only), runs the final Compact, reports the store's size, and checks the
// conformance oracle: the full-window query equals offline Analyze of the
// same segments, byte for byte in folded form.
func (h *historyPath) finish(tr *tracer, r *passResult) error {
	id := tr.begin("bench.history_final", 0)
	defer tr.finish(id)
	st := h.e.store
	during := st.Stats()

	for _, err := range h.ingErr {
		r.check(false, "history: ingest: %v", err)
	}
	r.attempted += int64(len(h.ingested) + len(h.ingErr) + h.readOps)
	r.failed += int64(len(h.ingErr) + h.readBad)
	r.note("history: %d segments ingested (%d entries), %d queries, %d diffs, ingest at most %.3f ms late",
		len(h.ingested), h.acked, len(h.latencies), len(h.diffMs), ms(h.lag))

	var allocBytes uint64
	var allocEntries int
	if tr != nil {
		for i := 0; i < allocQueries; i++ {
			from, to := h.window()
			p, lc, err := profile(st, from, to, tr, id, true)
			if err != nil {
				return err
			}
			allocBytes += lc.alloc.bytes
			allocEntries += windowEntries(p)
		}
	}

	// Bytes rewritten by the final compaction are the sizes of the tables
	// it created.
	old := make(map[uint64]bool)
	for _, tm := range st.Tables() {
		old[tm.Seq] = true
	}
	compact, err := tr.call("profilestore.Compact", id, false, st.Compact)
	if err != nil {
		return err
	}
	var rewritten int64
	for _, tm := range st.Tables() {
		if old[tm.Seq] {
			continue
		}
		info, err := os.Stat(filepath.Join(h.e.storeDir, tm.File))
		if err != nil {
			return err
		}
		rewritten += info.Size()
	}
	onDisk, err := dirBytes(h.e.storeDir)
	if err != nil {
		return err
	}
	r.e2e["store_bytes_per_entry"] = metric{float64(onDisk) / float64(st.Stats().Entries), "B"}

	r.attempted++
	if err := h.e.historyOracle(h.ingested, tr, id); err != nil {
		r.failed++
		r.check(false, "history: %v", err)
	}

	r.layer["query_p99_ms"] = metric{median(h.p99s), "ms"}
	r.layer["profilestore.ingest_ns_per_entry"] = metric{float64(h.ingest) / float64(h.acked), "ns"}
	r.layer["profilestore.compact_s"] = metric{compact.dur.Seconds(), "s"}
	r.layer["profilestore.compact_bytes_rewritten"] = metric{float64(rewritten), "B"}
	if h.queryEntries > 0 {
		r.layer["profilestore.query_ns_per_entry"] = metric{float64(h.queryDur) / float64(h.queryEntries), "ns"}
	}
	if allocEntries > 0 {
		r.layer["profilestore.query_alloc_bytes_per_entry"] = metric{float64(allocBytes) / float64(allocEntries), "B"}
	}
	hits := profilestore.Stats{
		CacheHits:   during.CacheHits - h.before.CacheHits,
		CacheMisses: during.CacheMisses - h.before.CacheMisses,
	}
	r.layer["profilestore.cache_hit_rate"] = metric{hits.HitRate(), "ratio"}
	r.layer["profilestore.diff_ms"] = metric{median(h.diffMs), "ms"}
	return nil
}

// window draws a window of sz.windowTicks ticks at a random position in
// the store's current counter range.
func (h *historyPath) window() (uint64, uint64) {
	lo, hi, ok := h.e.store.Bounds()
	width := h.sz.windowTicks
	if !ok || hi-lo <= width {
		return lo, hi
	}
	from := lo + uint64(h.rng.Int63n(int64(hi-lo-width)))
	return from, from + width - 1
}

func profile(st *profilestore.Store, from, to uint64, tr *tracer, parent int, mem bool) (*analyzer.Profile, layerCall, error) {
	var p *analyzer.Profile
	lc, err := tr.call("profilestore.Profile", parent, mem, func() (err error) {
		p, err = st.Profile(profilestore.AllThreads, from, to)
		return err
	})
	return p, lc, err
}

// windowEntries is the number of log entries a query's profile was built
// from.
func windowEntries(p *analyzer.Profile) int {
	n := p.Dismissed
	for _, t := range p.Threads() {
		n += t.Events
	}
	return n
}

// foldedConserves reports whether the folded weights sum to the roots'
// inclusive time.
func foldedConserves(p *analyzer.Profile) bool {
	var sum uint64
	for _, v := range p.Folded() {
		sum += v
	}
	return sum == p.TotalTicks
}

func (e *env) historyOracle(ingested []int, tr *tracer, parent int) error {
	var entries []shmlog.Entry
	for _, seg := range e.prefill {
		entries = append(entries, seg.CommittedEntries()...)
	}
	for _, i := range ingested {
		entries = append(entries, e.segs[i].CommittedEntries()...)
	}
	got, _, err := profile(e.store, 0, profilestore.FullWindow, tr, parent, false)
	if err != nil {
		return fmt.Errorf("full-window query: %w", err)
	}
	var want *analyzer.Profile
	if _, err := tr.call("analyzer.Analyze", parent, false, func() (err error) {
		want, err = analyzer.Analyze(shmlog.FromEntries(entries, histPID, e.tab.AnchorAddr(), 1), e.tab)
		return err
	}); err != nil {
		return fmt.Errorf("offline analyze: %w", err)
	}
	var gotBuf, wantBuf bytes.Buffer
	if err := flamegraph.WriteFolded(&gotBuf, got.Folded()); err != nil {
		return err
	}
	if err := flamegraph.WriteFolded(&wantBuf, want.Folded()); err != nil {
		return err
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		return fmt.Errorf("full-window folded output (%d bytes) differs from offline Analyze (%d bytes)", gotBuf.Len(), wantBuf.Len())
	}
	return nil
}
