package recorder

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// logSectionLen parses a bundle far enough to return the declared log
// section length and the number of bytes that follow its header line.
func logSectionLen(t *testing.T, bundle []byte) (declared, present int) {
	t.Helper()
	i := bytes.Index(bundle, []byte("\nsection log "))
	if i < 0 {
		t.Fatal("no log section header")
	}
	line := bundle[i+1:]
	end := bytes.IndexByte(line, '\n')
	if _, err := fmt.Sscanf(string(line[:end]), "section log %d", &declared); err != nil {
		t.Fatal(err)
	}
	return declared, len(line) - end - 1
}

// TestWriteBundleWhileAppending persists a sharded log while writers keep
// appending: every bundle's declared log length must equal its body, and
// every bundle must load.
func TestWriteBundleWhileAppending(t *testing.T) {
	log, err := shmlog.New(1<<20, shmlog.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	var (
		stop    atomic.Bool
		counter atomic.Uint64
		wg      sync.WaitGroup
	)
	for tid := uint64(1); tid <= 4; tid++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			for !stop.Load() {
				if log.Append(shmlog.Entry{Kind: shmlog.KindCall, Counter: counter.Add(1), Addr: 0x400000, ThreadID: tid}) != nil {
					return
				}
			}
		}(tid)
	}
	defer func() { stop.Store(true); wg.Wait() }()

	for pass := 0; pass < 10; pass++ {
		var buf bytes.Buffer
		if err := WriteBundle(&buf, symtab.New(), log); err != nil {
			t.Fatal(err)
		}
		if declared, present := logSectionLen(t, buf.Bytes()); declared != present {
			t.Fatalf("pass %d: log section declares %d bytes, body holds %d", pass, declared, present)
		}
		if _, _, err := ReadBundle(&buf); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
}

// TestReadBundleAllocationFence loads a 1 Mi-entry two-shard bundle (one
// thread per segment, interleaved counters) and bounds what the load
// allocates: the log section is read once and decoded once, so the total
// stays within 2.5x the section's bytes.
func TestReadBundleAllocationFence(t *testing.T) {
	const entries = 1 << 20
	log, err := shmlog.New(entries, shmlog.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		kind := shmlog.KindCall
		if i/2%2 == 1 {
			kind = shmlog.KindReturn
		}
		if err := log.Append(shmlog.Entry{Kind: kind, Counter: uint64(i + 1), Addr: 0x400000, ThreadID: uint64(i%2 + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, symtab.New(), log); err != nil {
		t.Fatal(err)
	}
	section := log.Snapshot().Size()
	bundle := buf.Bytes()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, got, err := ReadBundle(bytes.NewReader(bundle))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != entries {
		t.Fatalf("loaded %d entries, want %d", got.Len(), entries)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(section) * 5 / 2; alloc > limit {
		t.Fatalf("ReadBundle allocated %d B for a %d-B log section (%.2fx, fence 2.5x)",
			alloc, section, float64(alloc)/float64(section))
	}
	t.Logf("ReadBundle allocated %.2fx the log section", float64(alloc)/float64(section))
}
