package analyzer

// Differential oracle. referenceAnalyze is the analyzer as it stood before
// the path-trie stack machine: one closedRec per execution, stack keys
// built with strings.Join, records merged by a stable sort on the closing
// log index, and per-function tables accumulated record by record. It is
// frozen here so that every accessor of AnalyzeWith can be compared with
// it on random multi-thread call/return streams.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

type refFrame struct {
	addr       uint64
	name       string
	start      uint64
	childTicks uint64
}

type refThreadEntries struct {
	id      uint64
	entries []shmlog.Entry
	at      []int
}

type refClosedRec struct {
	rec      Record
	stackKey string
	at       int
}

type refThreadResult struct {
	stat      ThreadStat
	recs      []refClosedRec
	unmatched int
	truncated int
}

// referenceAnalyze returns a profile whose Records are already built.
func referenceAnalyze(log *shmlog.Log, tab *symtab.Table, opts Options) (*Profile, error) {
	if log == nil || tab == nil {
		return nil, ErrNilInput
	}
	if log.ProfilerAddr() != 0 {
		tab.SetLoadBias(log.ProfilerAddr())
	}
	period := log.SamplePeriod()
	if period == 0 {
		period = 1
	}
	p := &Profile{
		PID:          log.PID(),
		SamplePeriod: period,
		byName:       make(map[string]int),
		folded:       make(map[string]uint64),
		pathStats:    make(map[string]*pathAccum),
		Dropped:      log.Dropped(),
		Recovery:     opts.Recovery,
	}
	lenient := opts.Recovery != nil

	threads := make(map[uint64]*refThreadEntries)
	order := make([]uint64, 0, 8)
	n := log.Len()
	for i := 0; i < n; i++ {
		e, err := log.Entry(i)
		if err != nil {
			return nil, fmt.Errorf("analyzer: entry %d: %w", i, err)
		}
		if e.ThreadID == 0 || e.ThreadID == shmlog.TombstoneTID {
			p.Dismissed++
			continue
		}
		g, ok := threads[e.ThreadID]
		if !ok {
			g = &refThreadEntries{id: e.ThreadID}
			threads[e.ThreadID] = g
			order = append(order, e.ThreadID)
		}
		g.entries = append(g.entries, e)
		g.at = append(g.at, i)
	}

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) {
		workers = len(order)
	}
	results := make([]refThreadResult, len(order))
	if workers <= 1 {
		for oi, tid := range order {
			results[oi] = refAnalyzeThread(threads[tid], tab, n+oi, lenient)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for oi := range jobs {
					results[oi] = refAnalyzeThread(threads[order[oi]], tab, n+oi, lenient)
				}
			}()
		}
		for oi := range order {
			jobs <- oi
		}
		close(jobs)
		wg.Wait()
	}

	total := 0
	for oi := range results {
		r := &results[oi]
		stat := r.stat
		stat.Ticks *= period
		stat.Calls *= period
		p.threads = append(p.threads, stat)
		p.TotalTicks += stat.Ticks
		p.Truncated += r.truncated
		p.Unmatched += r.unmatched
		total += len(r.recs)
	}
	merged := make([]refClosedRec, 0, total)
	for oi := range results {
		merged = append(merged, results[oi].recs...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].at < merged[j].at })
	records := make([]Record, 0, len(merged))
	for i := range merged {
		cr := &merged[i]
		cr.rec.Incl *= period
		cr.rec.Self *= period
		records = append(records, cr.rec)
		if cr.rec.Self > 0 {
			p.folded[cr.stackKey] += cr.rec.Self
		} else if cr.rec.Name == TruncatedFrameName {
			p.folded[cr.stackKey] += 0
		}
		pa, ok := p.pathStats[cr.stackKey]
		if !ok {
			pa = &pathAccum{}
			p.pathStats[cr.stackKey] = pa
		}
		pa.calls += period
		pa.incl += cr.rec.Incl
		pa.self += cr.rec.Self
		refAccumulate(p, cr.rec, period)
	}
	p.records = records
	p.recordsOnce.Do(func() {})

	sort.Slice(p.threads, func(i, j int) bool { return p.threads[i].ID < p.threads[j].ID })
	sort.Slice(p.funcs, func(i, j int) bool {
		if p.funcs[i].Self != p.funcs[j].Self {
			return p.funcs[i].Self > p.funcs[j].Self
		}
		return p.funcs[i].Name < p.funcs[j].Name
	})
	p.byName = make(map[string]int, len(p.funcs))
	for i, f := range p.funcs {
		p.byName[f.Name] = i
	}
	return p, nil
}

func refAnalyzeThread(g *refThreadEntries, tab *symtab.Table, forceAt int, lenient bool) refThreadResult {
	res := refThreadResult{stat: ThreadStat{ID: g.id}}
	var (
		stack  []refFrame
		names  []string
		lastTS uint64
	)
	closeTop := func(now uint64, truncated bool, at int) {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		incl := uint64(0)
		if now > f.start {
			incl = now - f.start
		}
		self := uint64(0)
		if incl > f.childTicks {
			self = incl - f.childTicks
		}
		depth := len(stack)
		caller := ""
		if depth > 0 {
			parent := &stack[depth-1]
			parent.childTicks += incl
			caller = parent.name
		} else {
			res.stat.Ticks += incl
		}
		res.stat.Calls++
		stackKey := strings.Join(names, ";")
		names = names[:len(names)-1]
		res.recs = append(res.recs, refClosedRec{
			rec: Record{
				Thread: res.stat.ID, Name: f.name, Addr: f.addr, Caller: caller, Depth: depth,
				Start: f.start, End: now, Incl: incl, Self: self, Truncated: truncated,
			},
			stackKey: stackKey,
			at:       at,
		})
	}
	for k := range g.entries {
		e := &g.entries[k]
		res.stat.Events++
		lastTS = e.Counter
		switch e.Kind {
		case shmlog.KindCall:
			stack = append(stack, refFrame{addr: e.Addr, name: tab.Name(e.Addr), start: e.Counter})
			names = append(names, stack[len(stack)-1].name)
			if d := len(stack); d > res.stat.MaxDepth {
				res.stat.MaxDepth = d
			}
		case shmlog.KindReturn:
			match := -1
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].addr == e.Addr {
					match = i
					break
				}
			}
			if match < 0 {
				res.unmatched++
				if lenient {
					caller := ""
					if len(stack) > 0 {
						caller = stack[len(stack)-1].name
					}
					stackKey := TruncatedFrameName
					if len(names) > 0 {
						stackKey = strings.Join(names, ";") + ";" + TruncatedFrameName
					}
					res.recs = append(res.recs, refClosedRec{
						rec: Record{
							Thread: res.stat.ID, Name: TruncatedFrameName, Addr: e.Addr, Caller: caller,
							Depth: len(stack), Start: e.Counter, End: e.Counter, Truncated: true,
						},
						stackKey: stackKey,
						at:       g.at[k],
					})
				}
				continue
			}
			for len(stack) > match {
				closeTop(e.Counter, false, g.at[k])
			}
		}
	}
	for len(stack) > 0 {
		closeTop(lastTS, true, forceAt)
		res.truncated++
	}
	return res
}

func refAccumulate(p *Profile, rec Record, period uint64) {
	i, ok := p.byName[rec.Name]
	if !ok {
		i = len(p.funcs)
		p.byName[rec.Name] = i
		p.funcs = append(p.funcs, FuncStat{
			Name: rec.Name, Addr: rec.Addr,
			Callers: make(map[string]uint64), Callees: make(map[string]uint64),
		})
	}
	f := &p.funcs[i]
	if f.Addr == 0 {
		f.Addr = rec.Addr
	}
	f.Calls += period
	f.Incl += rec.Incl
	f.Self += rec.Self
	if rec.Caller != "" {
		f.Callers[rec.Caller] += period
		j, ok := p.byName[rec.Caller]
		if !ok {
			j = len(p.funcs)
			p.byName[rec.Caller] = j
			p.funcs = append(p.funcs, FuncStat{
				Name:    rec.Caller,
				Callers: make(map[string]uint64),
				Callees: make(map[string]uint64),
			})
		}
		p.funcs[j].Callees[rec.Name] += period
	}
}

// byteSource hands out the bytes of a fuzz input one at a time, then
// zeros, so every input decodes to some stream.
type byteSource struct {
	data []byte
	pos  int
}

func (s *byteSource) next() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *byteSource) done() bool { return s.pos >= len(s.data) }

// streamFromBytes decodes data into a log, a symbol table and options. The
// streams mix several threads (on one or two log segments), nested calls,
// returns that close several frames, unmatched returns, frames left open
// at the end, in-flight holes and released tombstones, counters that stall
// or run backwards, sample periods above 1, an alias address and a
// separately registered function that share one name's path with another
// frame, names containing the path separator, a real function named like
// the synthetic truncated frame, unresolved addresses and address zero.
func streamFromBytes(tb testing.TB, data []byte) (*shmlog.Log, *symtab.Table, Options) {
	tb.Helper()
	src := &byteSource{data: data}
	cfg := src.next()
	threads := 1 + int(cfg%4)
	shards := 1 + int(cfg>>2)%2
	period := []uint64{0, 1, 2, 3, 64, 1 << 62}[int(cfg>>3)%6]
	var opts Options
	if cfg&0x40 != 0 {
		opts.Recovery = &shmlog.RecoveryReport{SourceVersion: shmlog.Version}
	}
	opts.Parallelism = []int{1, 0, 3}[int(src.next())%3]

	tab := symtab.New()
	var addrs []uint64
	for _, name := range []string{"ra", "rb", "rc", "ra;rb", TruncatedFrameName, "rd"} {
		a, err := tab.Register(name, 0x40, "reference.c", len(addrs)+1)
		if err != nil {
			tb.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	// An address inside ra resolves to ra too; 0xdead0 resolves to nothing.
	addrs = append(addrs, addrs[0]+8, 0xdead0, 0)

	const maxEvents = 4096
	log, err := shmlog.New(6*maxEvents+64, shmlog.WithShards(shards), shmlog.WithSamplePeriod(period))
	if err != nil {
		tb.Fatal(err)
	}
	stacks := make([][]uint64, threads+1)
	clocks := make([]uint64, threads+1)
	for ev := 0; ev < maxEvents && !src.done(); ev++ {
		op, arg := src.next(), src.next()
		tid := uint64(1 + int(op)%threads)
		stack := &stacks[tid]
		switch c := &clocks[tid]; {
		case arg%16 == 15:
			*c -= uint64(arg >> 4) // the counter runs backwards
		case arg%16 == 14:
			*c += 1 << 40
		default:
			*c += uint64(arg % 8) // may stall
		}
		e := shmlog.Entry{Counter: clocks[tid] & (1<<63 - 1), ThreadID: tid}
		switch kind := (op >> 2) % 8; {
		case kind == 7:
			// A batched writer's leftovers: one committed slot, one
			// released slot and one hole.
			start, got := log.Reserve(3)
			if got == 3 {
				e.Kind = shmlog.KindCall
				e.Addr = addrs[int(arg)%len(addrs)]
				log.Commit(start, e)
				*stack = append(*stack, e.Addr)
				log.Release(start + 1)
			}
			continue
		case kind == 6:
			e.Kind = shmlog.KindReturn
			e.Addr = 0xbad00 + uint64(arg%4)*0x10 // unmatched
		case kind >= 3 && len(*stack) > 0:
			// Return from a live frame; frames above it lose their returns.
			d := int(arg) % len(*stack)
			if kind == 5 {
				d = len(*stack) - 1
			}
			e.Kind = shmlog.KindReturn
			e.Addr = (*stack)[d]
			*stack = (*stack)[:d]
		default:
			e.Kind = shmlog.KindCall
			e.Addr = addrs[int(arg)%len(addrs)]
			*stack = append(*stack, e.Addr)
		}
		if err := log.Append(e); err != nil {
			tb.Fatal(err)
		}
	}
	return log, tab, opts
}

// checkAgainstReference fails tb unless every accessor of AnalyzeWith
// equals the reference analyzer's on the same input.
func checkAgainstReference(tb testing.TB, log *shmlog.Log, tab *symtab.Table, opts Options) {
	tb.Helper()
	want, err := referenceAnalyze(log, tab, opts)
	if err != nil {
		tb.Fatal(err)
	}
	got, err := AnalyzeWith(log, tab, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"Funcs", got.Funcs(), want.Funcs()},
		{"Folded", got.Folded(), want.Folded()},
		{"Paths", got.Paths(), want.Paths()},
		{"CallGraph", callGraphText(tb, got), callGraphText(tb, want)},
		{"Threads", got.Threads(), want.Threads()},
		{"Records", got.Records(), want.Records()},
		{"scalars",
			[]any{got.PID, got.SamplePeriod, got.TotalTicks, got.Truncated, got.Unmatched, got.Dismissed, got.Dropped, got.Recovery},
			[]any{want.PID, want.SamplePeriod, want.TotalTicks, want.Truncated, want.Unmatched, want.Dismissed, want.Dropped, want.Recovery}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			tb.Fatalf("%s differ from the reference:\n got %+v\nwant %+v", c.what, c.got, c.want)
		}
	}
}

func callGraphText(tb testing.TB, p *Profile) string {
	var b bytes.Buffer
	if err := p.WriteCallGraph(&b, len(p.Funcs())); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// TestAnalyzeMatchesReference: seeded random streams of every shape.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+rng.Intn(2*4096))
		rng.Read(data)
		log, tab, opts := streamFromBytes(t, data)
		checkAgainstReference(t, log, tab, opts)
	}
}

// TestAnalyzeMatchesReferenceOnFixture: the randomized 100k-entry
// fixture of the parallel oracle, plain and lenient.
func TestAnalyzeMatchesReferenceOnFixture(t *testing.T) {
	log, tab := buildRandomizedLog(t, 100_000)
	checkAgainstReference(t, log, tab, Options{})
	checkAgainstReference(t, log, tab, Options{Recovery: &shmlog.RecoveryReport{}})
}

func FuzzAnalyzeReference(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x14, 0x00, 0x14, 0x00})
	f.Add([]byte{0x4b, 0x01, 0x00, 0x07, 0x1c, 0x05, 0x18, 0x00, 0x04, 0x0f, 0x15, 0x03})
	f.Add([]byte{0x7f, 0x02, 0x01, 0x04, 0x02, 0x08, 0x1d, 0x0e, 0x16, 0x01, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		log, tab, opts := streamFromBytes(t, data)
		checkAgainstReference(t, log, tab, opts)
	})
}
