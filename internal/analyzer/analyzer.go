// Package analyzer implements TEE-Perf's stage 3: the offline component
// that dissects a recorded log. It groups entries per thread, rebuilds each
// thread's call stack from the call/return stream, computes inclusive and
// exclusive (self) tick counts per method, resolves addresses through the
// symbol table (using the profiler-anchor relocation offset stored in the
// log header), and produces the folded call stacks the visualizer consumes.
//
// Reconstruction is one stack machine per thread that carries its own
// aggregates: each call path is interned as a node of a trie keyed by
// (parent node, resolved name), and closing a frame only bumps that node's
// call, inclusive and self counters. Per-path, per-function and folded
// tables are then built once per distinct path, and the per-execution
// Records only when a caller asks for them.
package analyzer

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// Record is one completed (or force-closed) function execution.
type Record struct {
	// Thread is the log thread ID.
	Thread uint64
	// Name is the resolved, demangled function name.
	Name string
	// Addr is the runtime address recorded by the probe.
	Addr uint64
	// Caller is the resolved name of the parent frame ("" for roots).
	Caller string
	// Depth is the stack depth (0 for roots).
	Depth int
	// Start and End are the counter values at entry and exit (always raw,
	// even in sampled logs).
	Start, End uint64
	// Incl is End-Start; Self is Incl minus the inclusive time of
	// children (never negative). In a sampled log (header sampling period
	// N > 1) both are scaled by N, so totals estimate the full profile.
	Incl, Self uint64
	// Truncated marks frames force-closed at the end of the log.
	Truncated bool
}

// FuncStat aggregates all executions of one function.
type FuncStat struct {
	// Name is the resolved, demangled function name.
	Name string
	// Addr is the runtime address recorded by the probes.
	Addr uint64
	// Calls is the number of recorded executions.
	Calls uint64
	// Incl and Self are total inclusive and exclusive ticks.
	Incl, Self uint64
	// Callers and Callees count invocation edges by resolved name.
	Callers map[string]uint64
	Callees map[string]uint64
}

// ThreadStat summarizes one thread.
type ThreadStat struct {
	// ID is the log thread ID.
	ID uint64
	// Events is the number of log entries attributed to the thread.
	Events int
	// Calls is the number of completed executions.
	Calls uint64
	// Ticks is the total root-level inclusive time.
	Ticks uint64
	// MaxDepth is the deepest reconstructed stack.
	MaxDepth int
}

// Profile is the analyzer output.
type Profile struct {
	// PID is the process ID recorded in the log header.
	PID uint64
	// SamplePeriod is the sampling period recorded in the log header (1 for
	// full recordings; the header's 0 normalizes to 1). When above 1, every
	// weight in the profile — tick totals, folded stacks, call counts — has
	// been scaled by it, so the profile estimates the full recording.
	SamplePeriod uint64
	// TotalTicks is the sum of root-frame inclusive ticks over all
	// threads — the denominator for percentages.
	TotalTicks uint64
	// Truncated counts frames force-closed because the log ended (the
	// paper's analyzer similarly dismisses possibly-wrong records at the
	// log end).
	Truncated int
	// Unmatched counts return entries with no corresponding call
	// (typically the result of toggling recording mid-run).
	Unmatched int
	// Dismissed counts log slots that carried no committed event: holes a
	// batched writer reserved but never filled (thread ID 0) and released
	// slots (tombstones). They are skipped, exactly as the paper's
	// analyzer dismisses possibly-wrong records.
	Dismissed int
	// Dropped is the number of entries lost to log overflow, as recorded
	// in the log.
	Dropped uint64
	// Recovery carries the salvage report when the profile was built from
	// a log recovered by shmlog.ReadLenient (nil for clean logs). When
	// set, return entries whose call was lost to the salvage are
	// attributed to the synthetic TruncatedFrameName function instead of
	// being silently dropped, so the damage is visible in tables and
	// flame graphs.
	Recovery *shmlog.RecoveryReport

	funcs     []FuncStat
	byName    map[string]int
	threads   []ThreadStat
	folded    map[string]uint64
	pathStats map[string]*pathAccum

	// runs keep what Records needs to replay every execution (logLen
	// places the force-closed ones); records is built from them on first
	// use, never by re-reading the log, which callers reset and reuse once
	// the profile exists.
	runs        []*threadRun
	logLen      int
	recordsOnce sync.Once
	records     []Record
}

// pathAccum collects per-call-path totals during analysis.
type pathAccum struct {
	calls, incl, self uint64
}

// ErrNilInput is returned when Analyze receives nil arguments.
var ErrNilInput = errors.New("analyzer: nil log or symbol table")

// TruncatedFrameName is the synthetic frame recovered-but-unmatched
// entries are attributed to when analyzing a salvaged log: the visible
// scar of a torn head or tail, mirroring the analyzer's existing
// force-close tolerance for truncated tails.
const TruncatedFrameName = "[truncated]"

// Options tunes AnalyzeWith. The zero value matches Analyze.
type Options struct {
	// Parallelism is the number of worker goroutines reconstructing
	// per-thread call stacks (threads are independent by construction);
	// 0 means GOMAXPROCS, 1 forces the serial path. The output is
	// byte-identical at every setting.
	Parallelism int

	// Recovery marks the log as salvaged by shmlog.ReadLenient and
	// attaches the salvage report to the profile. In recovery mode,
	// unmatched returns — calls lost with the torn region — surface as
	// zero-tick records under TruncatedFrameName instead of vanishing
	// into a counter.
	Recovery *shmlog.RecoveryReport
}

// node is one call path interned in a thread's trie: the path of its
// parent plus one frame. Node 0 is the virtual root above all root frames.
type node struct {
	parent int32
	// depth is the stack depth of the node's frame (0 for roots).
	depth int32
	name  string
	// synthetic marks the zero-width TruncatedFrameName frame that lenient
	// recovery hangs orphaned returns on (a real function may resolve to
	// the same name).
	synthetic bool
	// folds records whether some execution here had nonzero scaled self
	// time, the per-record condition for entering the folded map.
	folds bool
	// cacheAddr and cacheChild remember the last call made below this
	// node, so loops and recursion skip the child lookup.
	cacheAddr  uint64
	cacheChild int32
	// calls, incl and self are the raw (unscaled) totals of the
	// executions closed here.
	calls, incl, self uint64
	// addr is the first nonzero probe address to close here, at addrPos.
	addr    uint64
	addrPos closePos
}

// closePos places an execution in the global close order: by the merge
// tag of its closing entry, then by its thread's close sequence (a merge
// tag belongs to one thread).
type closePos struct{ at, seq int }

func (a closePos) before(b closePos) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// pathFrame is one open call on a thread's reconstruction stack.
type pathFrame struct {
	node       int32
	addr       uint64
	start      uint64
	childTicks uint64
}

// closeRec is one completed execution as a worker emits it, in the
// thread's close order; Records rebuilds the full Record from it and the
// node. at is the log index of the closing entry, except for the frames
// force-closed at the end of the log, which are the last truncated
// records of their thread.
type closeRec struct {
	at, node         uint32
	start, end, self uint64
	addr             uint64
}

// chunkSize bounds the chunks a closeList grows by.
const chunkSize = 1 << 14

// closeList is an append-only list in chunks, so growing it never copies.
type closeList struct {
	chunks [][]closeRec
	n      int
}

func (l *closeList) push(r closeRec) {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == cap(l.chunks[k]) {
		size := chunkSize
		if len(l.chunks) < 8 {
			size = 64 << len(l.chunks) // 64 .. chunkSize/2
		}
		l.chunks = append(l.chunks, make([]closeRec, 0, size))
		k++
	}
	l.chunks[k] = append(l.chunks[k], r)
	l.n++
}

// threadRun is one thread's share of the analysis: its entries (phase 1)
// and its reconstructed trie and close list (phase 2).
type threadRun struct {
	id uint64
	// first and last are the thread's first and last log indices; the
	// indices in between are chained through the shared next array.
	first, last uint32
	events      int

	stat      ThreadStat
	unmatched int
	truncated int
	nodes     []node
	closes    closeList
}

// Analyze reconstructs a profile from a recorded log.
func Analyze(log *shmlog.Log, tab *symtab.Table) (*Profile, error) {
	return AnalyzeWith(log, tab, Options{})
}

// AnalyzeRecovered reconstructs a profile from a log salvaged by
// shmlog.ReadLenient, attaching the recovery report and attributing
// salvaged-but-unmatched entries to the synthetic TruncatedFrameName
// frame.
func AnalyzeRecovered(log *shmlog.Log, tab *symtab.Table, rep *shmlog.RecoveryReport) (*Profile, error) {
	return AnalyzeWith(log, tab, Options{Recovery: rep})
}

// maxLogLen is the longest log the analyzer indexes (uint32 slot indices);
// it equals the largest capacity shmlog accepts.
const maxLogLen = 1 << 32

// AnalyzeWith is Analyze with explicit tuning. It runs in three phases:
// a serial scan chains each thread's committed entries by log index
// (dismissing in-flight holes and released tombstones), a worker pool runs
// each thread's stack machine independently over its trie, and a serial
// merge folds the tries into one profile. Executions are ordered by the
// log index of their closing entry, which equals the serial close order,
// so the output is identical to a single-threaded analysis, worker
// scheduling notwithstanding.
func AnalyzeWith(log *shmlog.Log, tab *symtab.Table, opts Options) (*Profile, error) {
	if log == nil || tab == nil {
		return nil, ErrNilInput
	}
	// Recover the relocation offset from the recorded anchor address.
	if log.ProfilerAddr() != 0 {
		tab.SetLoadBias(log.ProfilerAddr())
	}

	// The sampling period scales every weight once, in phase 3.
	// Reconstruction (phase 2) stays raw: the childTicks arithmetic must
	// subtract like from like, and uint64 multiplication distributes over
	// the node sums, so scaling the sums equals scaling every execution.
	period := log.SamplePeriod()
	if period == 0 {
		period = 1
	}
	p := &Profile{
		PID:          log.PID(),
		SamplePeriod: period,
		Dropped:      log.Dropped(),
		Recovery:     opts.Recovery,
	}

	// Phase 1 (serial): chain each thread's entries in log order. next[i]
	// is the index of the thread's entry after i, so the per-thread lists
	// cost four bytes per entry and one allocation.
	n := log.Len()
	if uint64(n) > maxLogLen {
		return nil, fmt.Errorf("analyzer: log of %d entries exceeds %d", n, maxLogLen)
	}
	next := make([]uint32, n)
	byTID := make(map[uint64]*threadRun)
	var (
		runs []*threadRun
		cur  *threadRun
	)
	for i := 0; i < n; i++ {
		e, err := log.Entry(i)
		if err != nil {
			return nil, fmt.Errorf("analyzer: entry %d: %w", i, err)
		}
		if e.ThreadID == 0 || e.ThreadID == shmlog.TombstoneTID {
			p.Dismissed++
			continue
		}
		if cur == nil || cur.id != e.ThreadID {
			cur = byTID[e.ThreadID]
			if cur == nil {
				cur = &threadRun{id: e.ThreadID, first: uint32(i)}
				byTID[e.ThreadID] = cur
				runs = append(runs, cur)
			}
		}
		if cur.events > 0 {
			next[cur.last] = uint32(i)
		}
		cur.last = uint32(i)
		cur.events++
	}

	// Phase 2 (parallel): run each thread's stack machine. The symbol
	// table's resolver is concurrency-safe; everything else is
	// thread-local.
	lenient := opts.Recovery != nil
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	run := func(oi int) {
		// The machine works on a copy of the run, on its own goroutine's
		// stack, so workers never write to neighbouring heap objects.
		m := machine{t: *runs[oi], tab: tab, period: period, lenient: lenient}
		m.run(log, next, n+oi)
		*runs[oi] = m.t
	}
	if workers <= 1 {
		for oi := range runs {
			run(oi)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for oi := range jobs {
					run(oi)
				}
			}()
		}
		for oi := range runs {
			jobs <- oi
		}
		close(jobs)
		wg.Wait()
	}

	// Phase 3 (serial): merge.
	for _, t := range runs {
		stat := t.stat
		stat.Ticks *= period
		stat.Calls *= period
		p.threads = append(p.threads, stat)
		p.TotalTicks += stat.Ticks
		p.Truncated += t.truncated
		p.Unmatched += t.unmatched
	}
	sort.Slice(p.threads, func(i, j int) bool { return p.threads[i].ID < p.threads[j].ID })
	p.aggregate(runs, period)
	p.runs, p.logLen = runs, n
	return p, nil
}

// machine is one thread's stack machine (phase 2).
type machine struct {
	t       threadRun
	tab     *symtab.Table
	period  uint64
	lenient bool
	stack   []pathFrame
	// byAddr finds a node's child by call address, byName by resolved
	// name (several addresses may resolve to one name), and names caches
	// the resolver.
	byAddr map[childKey]int32
	byName map[nameKey]int32
	names  map[uint64]string
}

type childKey struct {
	parent int32
	addr   uint64
}

type nameKey struct {
	parent    int32
	name      string
	synthetic bool
}

// run rebuilds the thread's call stacks from its entry chain. forceAt is
// the merge tag for frames force-closed at the end of the log (past every
// real index, ordered by thread discovery). In lenient (recovery) mode,
// unmatched returns surface as zero-tick executions of a synthetic
// TruncatedFrameName child of the current frame rather than being dropped.
func (m *machine) run(log *shmlog.Log, next []uint32, forceAt int) {
	t := &m.t
	t.stat = ThreadStat{ID: t.id, Events: t.events}
	t.nodes = append(t.nodes, node{depth: -1})
	m.byAddr = make(map[childKey]int32)
	m.byName = make(map[nameKey]int32)
	m.names = make(map[uint64]string)

	var lastTS uint64
	i := t.first
	for k := 0; k < t.events; k++ {
		if k > 0 {
			i = next[i]
		}
		// Phase 1 read this index without error.
		e, _ := log.Entry(int(i))
		lastTS = e.Counter

		switch e.Kind {
		case shmlog.KindCall:
			parent := int32(0)
			if d := len(m.stack); d > 0 {
				parent = m.stack[d-1].node
			}
			c := t.nodes[parent].cacheChild
			if c == 0 || t.nodes[parent].cacheAddr != e.Addr {
				c = m.child(parent, e.Addr)
				t.nodes[parent].cacheAddr = e.Addr
				t.nodes[parent].cacheChild = c
			}
			m.stack = append(m.stack, pathFrame{node: c, addr: e.Addr, start: e.Counter})
			if d := len(m.stack); d > t.stat.MaxDepth {
				t.stat.MaxDepth = d
			}
		case shmlog.KindReturn:
			// Pop frames until the one matching the return closes. Frames
			// above the match lost their return entries (recording was
			// toggled or the log overflowed); they close at the return's
			// counter value.
			match := -1
			for j := len(m.stack) - 1; j >= 0; j-- {
				if m.stack[j].addr == e.Addr {
					match = j
					break
				}
			}
			if match < 0 {
				t.unmatched++
				if m.lenient {
					// The call side was lost with the torn region:
					// attribute the orphaned return to the synthetic
					// truncated frame so the salvage scar is visible.
					parent := int32(0)
					if d := len(m.stack); d > 0 {
						parent = m.stack[d-1].node
					}
					c := m.intern(parent, TruncatedFrameName, true)
					m.note(c, e.Addr, int(i), e.Counter, e.Counter, 0, 0)
				}
				continue
			}
			for len(m.stack) > match {
				m.closeTop(e.Counter, int(i))
			}
		}
	}

	// Force-close whatever remains on the stack at the thread's last
	// observed counter value; these durations are approximate.
	for len(m.stack) > 0 {
		m.closeTop(lastTS, forceAt)
		t.truncated++
	}
}

// child returns the node for a call to addr below parent.
func (m *machine) child(parent int32, addr uint64) int32 {
	k := childKey{parent, addr}
	if c, ok := m.byAddr[k]; ok {
		return c
	}
	name, ok := m.names[addr]
	if !ok {
		name = m.tab.Name(addr)
		m.names[addr] = name
	}
	c := m.intern(parent, name, false)
	m.byAddr[k] = c
	return c
}

// intern returns parent's child node for name, creating it if needed.
func (m *machine) intern(parent int32, name string, synthetic bool) int32 {
	k := nameKey{parent, name, synthetic}
	if c, ok := m.byName[k]; ok {
		return c
	}
	c := int32(len(m.t.nodes))
	m.t.nodes = append(m.t.nodes, node{
		parent:    parent,
		depth:     m.t.nodes[parent].depth + 1,
		name:      name,
		synthetic: synthetic,
	})
	m.byName[k] = c
	return c
}

// closeTop completes the top frame at counter value now, closed by the
// entry with merge tag at.
func (m *machine) closeTop(now uint64, at int) {
	f := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]

	incl := uint64(0)
	if now > f.start {
		incl = now - f.start
	}
	self := uint64(0)
	if incl > f.childTicks {
		self = incl - f.childTicks
	}
	if d := len(m.stack); d > 0 {
		m.stack[d-1].childTicks += incl
	} else {
		m.t.stat.Ticks += incl
	}
	m.t.stat.Calls++
	m.note(f.node, f.addr, at, f.start, now, incl, self)
}

// note adds one execution to node id and to the thread's close list.
func (m *machine) note(id int32, addr uint64, at int, start, end, incl, self uint64) {
	t := &m.t
	nd := &t.nodes[id]
	nd.calls++
	nd.incl += incl
	nd.self += self
	if self*m.period != 0 {
		nd.folds = true
	}
	if addr != 0 && nd.addr == 0 {
		nd.addr, nd.addrPos = addr, closePos{at, t.closes.n}
	}
	t.closes.push(closeRec{at: uint32(at), node: uint32(id), start: start, end: end, self: self, addr: addr})
}

// aggregate fills the folded, per-path and per-function tables from the
// threads' tries, scaling every weight by period. The tries are merged on
// the way into one trie of distinct paths, so each path string is built
// once; tables are keyed by string, so distinct nodes whose names join to
// the same path add up.
func (p *Profile) aggregate(runs []*threadRun, period uint64) {
	p.folded = make(map[string]uint64)
	p.pathStats = make(map[string]*pathAccum)
	p.byName = make(map[string]int)
	var first []closePos // of each function's Addr
	fn := func(name string) int {
		i, ok := p.byName[name]
		if !ok {
			i = len(p.funcs)
			p.byName[name] = i
			p.funcs = append(p.funcs, FuncStat{
				Name:    name,
				Callers: make(map[string]uint64),
				Callees: make(map[string]uint64),
			})
			first = append(first, closePos{})
		}
		return i
	}
	type key struct {
		parent int32
		name   string
	}
	paths := []string{""} // by merged node; 0 is the virtual root
	merged := make(map[key]int32)
	var to []int32 // a thread's node -> merged node
	for _, t := range runs {
		to = append(to[:0], 0)
		for id := 1; id < len(t.nodes); id++ {
			nd := &t.nodes[id]
			k := key{to[nd.parent], nd.name}
			g, ok := merged[k]
			if !ok {
				g = int32(len(paths))
				path := nd.name
				if k.parent != 0 {
					path = paths[k.parent] + ";" + nd.name
				}
				paths = append(paths, path)
				merged[k] = g
			}
			to = append(to, g)
			path := paths[g]

			calls, incl, self := nd.calls*period, nd.incl*period, nd.self*period
			// The synthetic recovery frame is zero-width; its stack is
			// registered anyway so flame graphs show WHERE the torn
			// activity happened, even at zero weight.
			if nd.folds || nd.name == TruncatedFrameName {
				p.folded[path] += self
			}
			pa, ok := p.pathStats[path]
			if !ok {
				pa = &pathAccum{}
				p.pathStats[path] = pa
			}
			pa.calls += calls
			pa.incl += incl
			pa.self += self

			i := fn(nd.name)
			f := &p.funcs[i]
			f.Calls += calls
			f.Incl += incl
			f.Self += self
			if nd.addr != 0 && (f.Addr == 0 || nd.addrPos.before(first[i])) {
				f.Addr, first[i] = nd.addr, nd.addrPos
			}
			if caller := t.nodes[nd.parent].name; nd.parent != 0 && caller != "" {
				f.Callers[caller] += calls
				j := fn(caller) // may move p.funcs
				p.funcs[j].Callees[nd.name] += calls
			}
		}
	}
	sort.Slice(p.funcs, func(i, j int) bool {
		if p.funcs[i].Self != p.funcs[j].Self {
			return p.funcs[i].Self > p.funcs[j].Self
		}
		return p.funcs[i].Name < p.funcs[j].Name
	})
	for i, f := range p.funcs {
		p.byName[f.Name] = i
	}
}

// buildRecords replays every execution from the threads' close lists in
// the serial close order: by the merge tag of the closing entry, and in
// emission order within a thread (only one thread closes at any tag).
func (p *Profile) buildRecords() {
	type ref struct {
		pos    closePos
		t      *threadRun
		c      *closeRec
		forced bool
	}
	total := 0
	for _, t := range p.runs {
		total += t.closes.n
	}
	refs := make([]ref, 0, total)
	for ri, t := range p.runs {
		first := len(refs)
		for _, chunk := range t.closes.chunks {
			for k := range chunk {
				seq := len(refs) - first
				r := ref{pos: closePos{int(chunk[k].at), seq}, t: t, c: &chunk[k]}
				if r.forced = seq >= t.closes.n-t.truncated; r.forced {
					r.pos.at = p.logLen + ri
				}
				refs = append(refs, r)
			}
		}
	}
	if len(p.runs) > 1 {
		sort.Slice(refs, func(a, b int) bool { return refs[a].pos.before(refs[b].pos) })
	}
	p.records = make([]Record, len(refs))
	for k, r := range refs {
		nd := &r.t.nodes[r.c.node]
		caller := ""
		if nd.parent != 0 {
			caller = r.t.nodes[nd.parent].name
		}
		incl := uint64(0)
		if r.c.end > r.c.start {
			incl = r.c.end - r.c.start
		}
		p.records[k] = Record{
			Thread:    r.t.id,
			Name:      nd.name,
			Addr:      r.c.addr,
			Caller:    caller,
			Depth:     int(nd.depth),
			Start:     r.c.start,
			End:       r.c.end,
			Incl:      incl * p.SamplePeriod,
			Self:      r.c.self * p.SamplePeriod,
			Truncated: r.forced || nd.synthetic,
		}
	}
	p.runs = nil
}

// Funcs returns per-function statistics sorted by self time (descending).
func (p *Profile) Funcs() []FuncStat {
	out := make([]FuncStat, len(p.funcs))
	copy(out, p.funcs)
	return out
}

// Top returns the n hottest functions by self time.
func (p *Profile) Top(n int) []FuncStat {
	if n > len(p.funcs) {
		n = len(p.funcs)
	}
	if n <= 0 {
		return nil
	}
	out := make([]FuncStat, n)
	copy(out, p.funcs[:n])
	return out
}

// Func returns the statistics for a function by resolved name.
func (p *Profile) Func(name string) (FuncStat, bool) {
	i, ok := p.byName[name]
	if !ok {
		return FuncStat{}, false
	}
	return p.funcs[i], true
}

// SelfFraction returns a function's share of total self time, in [0,1].
func (p *Profile) SelfFraction(name string) float64 {
	f, ok := p.Func(name)
	if !ok || p.TotalTicks == 0 {
		return 0
	}
	return float64(f.Self) / float64(p.TotalTicks)
}

// Threads returns per-thread statistics sorted by thread ID.
func (p *Profile) Threads() []ThreadStat {
	out := make([]ThreadStat, len(p.threads))
	copy(out, p.threads)
	return out
}

// Records returns every completed execution in completion order. The
// records are built on the first call.
func (p *Profile) Records() []Record {
	p.recordsOnce.Do(p.buildRecords)
	out := make([]Record, len(p.records))
	copy(out, p.records)
	return out
}

// Folded returns the folded-stack map: "root;child;leaf" -> self ticks.
func (p *Profile) Folded() map[string]uint64 {
	out := make(map[string]uint64, len(p.folded))
	for k, v := range p.folded {
		out[k] = v
	}
	return out
}

// WriteTable renders the top-n functions as an aligned text table, the
// analyzer's default sorted report.
func (p *Profile) WriteTable(w io.Writer, n int) error {
	top := p.Top(n)
	if _, err := fmt.Fprintf(w, "%-44s %12s %14s %14s %7s\n",
		"FUNCTION", "CALLS", "SELF", "INCL", "SELF%"); err != nil {
		return err
	}
	for _, f := range top {
		pct := 0.0
		if p.TotalTicks > 0 {
			pct = 100 * float64(f.Self) / float64(p.TotalTicks)
		}
		name := f.Name
		if len(name) > 44 {
			name = name[:41] + "..."
		}
		if _, err := fmt.Fprintf(w, "%-44s %12d %14d %14d %6.2f%%\n",
			name, f.Calls, f.Self, f.Incl, pct); err != nil {
			return err
		}
	}
	return nil
}
