package analyzer

import (
	"sort"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// Incremental folds a live stream of log entries into a per-method
// inclusive/exclusive-time table without reparsing the whole log. It is the
// online counterpart of Analyze: the monitor feeds it the entries a
// shmlog.Cursor surfaces while the workload is still running, and a
// Snapshot at any point reflects everything committed so far.
//
// The stack-reconstruction rules are identical to Analyze's — unmatched
// returns are counted and skipped, and frames still open at snapshot time
// are provisionally closed at their thread's last observed counter value
// (the live analogue of the offline force-close at the log's end) — so
// once the stream has been fully drained a snapshot converges to exactly
// the offline analyzer's result.
//
// Batched writers (probe.WithBatch) never disturb the stream: the cursor
// skips in-flight reserved slots and revisits them once committed, emitting
// resolved holes before newer entries, and drops released (tombstoned)
// slots entirely — so Incremental only ever sees committed events, each
// thread's in order.
//
// An Incremental is not safe for concurrent use; the monitor serializes
// access to it.
type Incremental struct {
	tab     *symtab.Table
	threads map[uint64]*incThread
	order   []uint64
	funcs   map[string]*LiveFunc

	// period is the sampling-period weight multiplier (>= 1). Stack
	// reconstruction stays raw; the period scales ticks and call counts at
	// aggregation time, exactly like the offline analyzer's phase-3 merge,
	// so a drained snapshot still equals Analyze's result on sampled logs.
	period uint64

	entries    int
	unmatched  int
	calls      uint64
	totalTicks uint64 // inclusive ticks of closed root frames
}

// frame is one open call on a live thread's stack.
type frame struct {
	addr       uint64
	name       string
	start      uint64
	childTicks uint64
}

type incThread struct {
	id       uint64
	stack    []frame
	lastTS   uint64
	events   int
	maxDepth int
}

// LiveFunc is one function's running totals in the live table.
type LiveFunc struct {
	// Name is the resolved function name.
	Name string
	// Calls counts closed executions (plus provisionally closed frames in
	// snapshots).
	Calls uint64
	// Incl and Self are total inclusive and exclusive ticks.
	Incl, Self uint64

	// addr remembers one runtime address of the function so SetTable can
	// re-resolve accumulated totals when symbols arrive mid-stream.
	addr uint64
}

// LiveTable is a point-in-time view of the live profile.
type LiveTable struct {
	// TotalTicks is the inclusive time of all root frames, including
	// provisionally closed ones — the denominator for percentages.
	TotalTicks uint64
	// Entries is the number of log entries folded in so far.
	Entries int
	// Calls is the number of closed executions.
	Calls uint64
	// Unmatched counts returns with no corresponding call.
	Unmatched int
	// OpenFrames counts frames that were provisionally closed for this
	// snapshot (calls still in flight).
	OpenFrames int
	// Threads is the number of threads observed.
	Threads int
	// MaxDepth is the deepest stack observed on any thread.
	MaxDepth int
	// Funcs is sorted by self time (descending, ties by name).
	Funcs []LiveFunc
}

// SelfPercent returns f's share of the table's total ticks, in percent.
func (t *LiveTable) SelfPercent(f LiveFunc) float64 {
	if t.TotalTicks == 0 {
		return 0
	}
	return 100 * float64(f.Self) / float64(t.TotalTicks)
}

// NewIncremental creates an incremental analyzer resolving addresses
// through tab. Set the table's load bias (from the log's profiler anchor)
// before feeding entries, exactly as Analyze does.
func NewIncremental(tab *symtab.Table) *Incremental {
	return &Incremental{
		tab:     tab,
		threads: make(map[uint64]*incThread),
		funcs:   make(map[string]*LiveFunc),
		period:  1,
	}
}

// SetSamplePeriod sets the weight multiplier for a sampled stream (the
// log header's sampling period; 0 and 1 both mean unscaled). Entries fed
// after the call are aggregated at the new weight — live monitors refresh
// it from the header each poll, so a mid-run throttle scales the entries
// recorded under it.
func (inc *Incremental) SetSamplePeriod(n uint64) {
	if n == 0 {
		n = 1
	}
	inc.period = n
}

// SamplePeriod returns the current weight multiplier.
func (inc *Incremental) SamplePeriod() uint64 { return inc.period }

// Feed folds one log entry into the live table.
func (inc *Incremental) Feed(e shmlog.Entry) {
	ts, ok := inc.threads[e.ThreadID]
	if !ok {
		ts = &incThread{id: e.ThreadID}
		inc.threads[e.ThreadID] = ts
		inc.order = append(inc.order, e.ThreadID)
	}
	inc.entries++
	ts.events++
	ts.lastTS = e.Counter

	switch e.Kind {
	case shmlog.KindCall:
		ts.stack = append(ts.stack, frame{
			addr:  e.Addr,
			name:  inc.tab.Name(e.Addr),
			start: e.Counter,
		})
		if d := len(ts.stack); d > ts.maxDepth {
			ts.maxDepth = d
		}
	case shmlog.KindReturn:
		inc.closeUntil(ts, e.Addr, e.Counter)
	}
}

// FeedAll folds a batch of entries in order.
func (inc *Incremental) FeedAll(entries []shmlog.Entry) {
	for _, e := range entries {
		inc.Feed(e)
	}
}

// Entries returns how many log entries have been folded in.
func (inc *Incremental) Entries() int { return inc.entries }

// Unmatched returns how many returns had no corresponding call.
func (inc *Incremental) Unmatched() int { return inc.unmatched }

// OpenFrames returns how many calls are currently in flight.
func (inc *Incremental) OpenFrames() int {
	open := 0
	for _, ts := range inc.threads {
		open += len(ts.stack)
	}
	return open
}

// closeUntil mirrors Profile.closeUntil: pop frames until the one matching
// addr is closed; an unmatched return is counted and skipped.
func (inc *Incremental) closeUntil(ts *incThread, addr, now uint64) {
	match := -1
	for i := len(ts.stack) - 1; i >= 0; i-- {
		if ts.stack[i].addr == addr {
			match = i
			break
		}
	}
	if match < 0 {
		inc.unmatched++
		return
	}
	for len(ts.stack) > match {
		inc.closeTop(ts, now)
	}
}

// closeTop completes the top frame at counter value now, with the same
// inclusive/exclusive arithmetic as the offline analyzer.
func (inc *Incremental) closeTop(ts *incThread, now uint64) {
	f := ts.stack[len(ts.stack)-1]
	ts.stack = ts.stack[:len(ts.stack)-1]

	var incl uint64
	if now > f.start {
		incl = now - f.start
	}
	var self uint64
	if incl > f.childTicks {
		self = incl - f.childTicks
	}
	// Stack arithmetic stays raw (childTicks subtracts like from like);
	// the sampling period scales only the aggregated weights below.
	if len(ts.stack) > 0 {
		ts.stack[len(ts.stack)-1].childTicks += incl
	} else {
		inc.totalTicks += incl * inc.period
	}
	inc.calls += inc.period
	inc.bump(f.addr, f.name, incl*inc.period, self*inc.period)
}

func (inc *Incremental) bump(addr uint64, name string, incl, self uint64) {
	lf, ok := inc.funcs[name]
	if !ok {
		lf = &LiveFunc{Name: name, addr: addr}
		inc.funcs[name] = lf
	}
	lf.Calls += inc.period
	lf.Incl += incl
	lf.Self += self
}

// SetTable swaps the resolution table and retroactively re-resolves every
// accumulated name — the open stacks and the per-function totals. This is
// how an external observer (the fleet agent) handles symbols that arrive
// after entries were already folded: addresses were accumulated under
// their placeholder "0x…" names, and the fresh table gives them real ones.
// Totals that re-resolve to the same name are merged.
func (inc *Incremental) SetTable(tab *symtab.Table) {
	if tab == nil || tab == inc.tab {
		return
	}
	inc.tab = tab
	for _, ts := range inc.threads {
		for i := range ts.stack {
			ts.stack[i].name = tab.Name(ts.stack[i].addr)
		}
	}
	funcs := make(map[string]*LiveFunc, len(inc.funcs))
	for _, lf := range inc.funcs {
		name := tab.Name(lf.addr)
		lf.Name = name
		if prev, ok := funcs[name]; ok {
			prev.Calls += lf.Calls
			prev.Incl += lf.Incl
			prev.Self += lf.Self
		} else {
			funcs[name] = lf
		}
	}
	inc.funcs = funcs
}

// Snapshot returns the current live table. Frames still open are
// provisionally closed at their thread's last observed counter value on a
// copy of the totals, so snapshotting never perturbs the running state. A
// top of 0 returns every function.
func (inc *Incremental) Snapshot(top int) LiveTable {
	t := LiveTable{
		TotalTicks: inc.totalTicks,
		Entries:    inc.entries,
		Calls:      inc.calls,
		Unmatched:  inc.unmatched,
		Threads:    len(inc.threads),
	}
	merged := make(map[string]LiveFunc, len(inc.funcs))
	for name, lf := range inc.funcs {
		merged[name] = *lf
	}

	for _, tid := range inc.order {
		ts := inc.threads[tid]
		if ts.maxDepth > t.MaxDepth {
			t.MaxDepth = ts.maxDepth
		}
		// Closing proceeds top of stack first; each closed frame's
		// inclusive time becomes additional child time of the frame
		// directly beneath it.
		var childIncl uint64
		for i := len(ts.stack) - 1; i >= 0; i-- {
			f := ts.stack[i]
			var incl uint64
			if ts.lastTS > f.start {
				incl = ts.lastTS - f.start
			}
			children := f.childTicks + childIncl
			var self uint64
			if incl > children {
				self = incl - children
			}
			lf := merged[f.name]
			lf.Name = f.name
			lf.Calls += inc.period
			lf.Incl += incl * inc.period
			lf.Self += self * inc.period
			merged[f.name] = lf
			childIncl = incl
			t.OpenFrames++
			t.Calls += inc.period
			if i == 0 {
				t.TotalTicks += incl * inc.period
			}
		}
	}

	t.Funcs = make([]LiveFunc, 0, len(merged))
	for _, lf := range merged {
		t.Funcs = append(t.Funcs, lf)
	}
	sort.Slice(t.Funcs, func(i, j int) bool {
		if t.Funcs[i].Self != t.Funcs[j].Self {
			return t.Funcs[i].Self > t.Funcs[j].Self
		}
		return t.Funcs[i].Name < t.Funcs[j].Name
	})
	if top > 0 && len(t.Funcs) > top {
		t.Funcs = t.Funcs[:top]
	}
	return t
}
