package analyzer

import (
	"runtime"
	"testing"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// TestAnalyzeAllocationFence: on a 1 Mi-entry log of 128-deep recursion,
// AnalyzeWith may allocate at most twice the log's entry bytes. Per-call
// stack strings or a copy of every entry would blow through the fence;
// the path trie, the index chain and the compact close list stay well
// inside it. Records are built on demand, so they are not counted.
func TestAnalyzeAllocationFence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 24 MiB log")
	}
	const entries, depth = 1 << 20, 128
	tab := symtab.New()
	descend := tab.MustRegister("rec_descend", 16, "stress.go", 1)
	log, err := shmlog.New(entries)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for log.Len()+2*depth <= entries {
		for _, kind := range []shmlog.Kind{shmlog.KindCall, shmlog.KindReturn} {
			for d := 0; d < depth; d++ {
				now++
				if err := log.Append(shmlog.Entry{Kind: kind, Counter: now, Addr: descend, ThreadID: 1}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := AnalyzeWith(log, tab, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	limit := uint64(2 * log.Len() * shmlog.EntrySize)
	t.Logf("AnalyzeWith allocated %d B for %d entries (%.1f B/entry, fence %d B)",
		allocated, log.Len(), float64(allocated)/float64(log.Len()), limit)
	if allocated > limit {
		t.Errorf("AnalyzeWith allocated %d B, more than twice the log's %d entry bytes", allocated, log.Len()*shmlog.EntrySize)
	}
	if got, want := len(p.Records()), log.Len()/2; got != want {
		t.Errorf("records = %d, want %d", got, want)
	}
}
