package shmlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/iotest"
)

// The strict decoder as it stood before the single-pass byte decoder,
// frozen verbatim (identifiers prefixed ref/reference) as the oracle the
// current Read and Decode must match: identical words, header accessors,
// SourceVersion and typed errors on every input. It reads through an
// io.Reader in chunks, collects 40-byte slots and merges multi-segment
// streams with a stable sort by counter.

// refRawSlot is one persisted slot's raw words plus its merge key, used while
// decoding a sharded stream.
type refRawSlot struct {
	w0, w1, w2 uint64
	seg        int
	local      int
}

// refBuildDecoded assembles a decoded single-segment log from raw slot words.
// The result is normalized to the current in-memory layout (one segment
// whose tail and capacity equal the slot count) with recording disabled.
func refBuildDecoded(slots []refRawSlot, srcVersion, pid, profilerAddr, flags, counter, samplePeriod uint64) *Log {
	n := len(slots)
	l := &Log{
		words:      make([]uint64, HeaderWords+SegHeaderWords+n*EntryWords),
		sync:       SyncAtomic,
		shards:     1,
		segCap:     n,
		srcVersion: srcVersion,
	}
	l.words[wordMagic] = Magic
	// Decoded logs are normalized to the current in-memory layout and
	// version; SourceVersion keeps the origin.
	l.words[wordVersion] = Version
	l.words[wordPID] = pid
	l.words[wordProfilerAddr] = profilerAddr
	l.words[wordShards] = 1
	l.words[wordFlags] = flags &^ FlagActive // read-only
	l.words[wordCapacity] = uint64(n)
	l.words[wordCounter] = counter
	l.words[wordSamplePeriod] = samplePeriod
	h := HeaderWords
	l.words[h+segWordTail] = uint64(n)
	l.words[h+segWordCapacity] = uint64(n)
	for i, s := range slots {
		base := h + SegHeaderWords + i*EntryWords
		l.words[base] = s.w0
		l.words[base+1] = s.w1
		l.words[base+2] = s.w2
	}
	return l
}

// refMergeSlots orders persisted slots by the global counter value, breaking
// ties by (segment, local slot). Collection order is (segment, local), so a
// stable sort by counter alone yields exactly that key. Each thread's
// entries live in one segment with nondecreasing counters in local-slot
// order, so the merged stream preserves per-thread order — analyzer output
// over the merged stream is byte-identical to a single-segment recording.
// Slots that never committed (zero or tombstone markers, counter word 0 or
// stale) ride along and are dismissed by readers exactly as in a
// single-segment log.
func refMergeSlots(slots []refRawSlot) {
	sort.SliceStable(slots, func(i, j int) bool {
		return slots[i].w0&counterMask < slots[j].w0&counterMask
	})
}

// referenceRead decodes a persisted log, accepting the current sharded format plus
// legacy version-2 (padded header, flat entry region) and version-1 (packed
// 64-byte header) streams. The returned log is inactive (read-only use),
// always uses the in-memory single-segment layout — a sharded stream is
// merged at read time by the global counter value — and still supports
// Entry/Entries/Len and header accessors; SourceVersion reports the format
// it was decoded from.
func referenceRead(r io.Reader) (*Log, error) {
	// All formats share a 64-byte prefix length: v1 is exactly 64 bytes
	// of header, v2/v3 begin with their first cache line. The magic word
	// disambiguates: v1 stores it in word 7, v2/v3 in word 0, and neither
	// position can fake the other (v1 word 0 holds small flag bits, v2
	// word 7 is reserved padding, v3 word 7 is a small shard count).
	head := make([]byte, HeaderSizeV1)
	if _, err := io.ReadFull(r, head); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, ErrEmptyLog
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncatedHeader
		}
		return nil, fmt.Errorf("shmlog: read header: %w", err)
	}
	var prefix [HeaderWordsV1]uint64
	for i := range prefix {
		prefix[i] = binary.LittleEndian.Uint64(head[i*8:])
	}

	switch {
	case prefix[v1WordMagic] == Magic:
		if prefix[v1WordVersion] != VersionV1 {
			return nil, fmt.Errorf("%w: %d", ErrBadVersion, prefix[v1WordVersion])
		}
		return refReadFlat(r, VersionV1,
			prefix[v1WordFlags], prefix[v1WordPID], prefix[v1WordProfilerAddr],
			prefix[v1WordCounter], prefix[v1WordCapacity], prefix[v1WordTail])
	case prefix[wordMagic] == Magic:
		// v2 and v3 share the 32-word main header; read the rest.
		rest := make([]byte, HeaderSize-HeaderSizeV1)
		if _, err := io.ReadFull(r, rest); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, ErrTruncatedHeader
			}
			return nil, fmt.Errorf("shmlog: read header: %w", err)
		}
		word := func(i int) uint64 {
			if i < HeaderWordsV1 {
				return prefix[i]
			}
			return binary.LittleEndian.Uint64(rest[(i-HeaderWordsV1)*8:])
		}
		switch v := prefix[wordVersion]; v {
		case VersionV2:
			return refReadFlat(r, VersionV2,
				word(wordFlags), word(wordPID), word(wordProfilerAddr),
				word(wordCounter), word(wordCapacity), word(wordTail))
		case Version:
			return refReadSharded(r, word)
		default:
			return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
		}
	default:
		return nil, ErrBadMagic
	}
}

// refReadFlat decodes the entry body of a legacy v1/v2 stream: tail entries
// immediately following the header, one flat region.
func refReadFlat(r io.Reader, srcVersion, flags, pid, profilerAddr, counter, capacity, tail uint64) (*Log, error) {
	if tail > capacity {
		tail = capacity
	}
	if capacity > maxEntries {
		return nil, fmt.Errorf("shmlog: unreasonable capacity %d", capacity)
	}
	slots := make([]refRawSlot, 0, refClampEntries(tail))
	if err := refReadSlots(r, &slots, int(tail), 0); err != nil {
		return nil, err
	}
	// v1/v2 predate the sampling-period word: always a full recording.
	return refBuildDecoded(slots, srcVersion, pid, profilerAddr, flags, counter, 0), nil
}

// refReadSharded decodes a v3 body: per-segment headers and compacted entry
// regions, merged into one stream by the global counter value.
func refReadSharded(r io.Reader, word func(int) uint64) (*Log, error) {
	shards := word(wordShards)
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("%w: %d", ErrBadShards, shards)
	}
	if word(wordCapacity) > maxEntries {
		return nil, fmt.Errorf("shmlog: unreasonable capacity %d", word(wordCapacity))
	}
	var slots []refRawSlot
	segHead := make([]byte, SegHeaderSize)
	total := uint64(0)
	for s := 0; s < int(shards); s++ {
		if _, err := io.ReadFull(r, segHead); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, ErrTruncated
			}
			return nil, fmt.Errorf("shmlog: read segment header: %w", err)
		}
		segTail := binary.LittleEndian.Uint64(segHead[segWordTail*8:])
		segCap := binary.LittleEndian.Uint64(segHead[segWordCapacity*8:])
		if segCap > maxEntries || total+segCap > maxEntries {
			return nil, fmt.Errorf("shmlog: unreasonable segment capacity %d", segCap)
		}
		total += segCap
		if segTail > segCap {
			// A raw (uncompacted) region whose writers raced past the end;
			// the reservation clamp normally parks the tail, but trust the
			// physical bound regardless.
			segTail = segCap
		}
		// The persisted segment body holds segCap slots (compacted streams
		// have segCap == segTail); only the reserved prefix carries data.
		if err := refReadSlots(r, &slots, int(segCap), s); err != nil {
			return nil, err
		}
		// Drop never-reserved slots above the tail from the decoded view.
		keep := len(slots) - (int(segCap) - int(segTail))
		slots = slots[:keep]
	}
	// A single segment is already in slot order; only a multi-segment
	// stream needs the counter merge.
	if shards > 1 {
		refMergeSlots(slots)
	}
	return refBuildDecoded(slots, Version,
		word(wordPID), word(wordProfilerAddr), word(wordFlags), word(wordCounter),
		word(wordSamplePeriod)), nil
}

// refReadSlots reads n entry slots from r and appends them to *slots tagged
// with their segment and local index. It reads incrementally so a forged
// header claiming billions of entries fails at the first missing byte
// instead of pre-allocating the claimed size.
func refReadSlots(r io.Reader, slots *[]refRawSlot, n, seg int) error {
	// Whole entries per chunk: 64 KiB is not a multiple of the 24-byte
	// entry size, so round down.
	chunk := make([]byte, (bulkBufSize/EntrySize)*EntrySize)
	remaining := int64(n) * EntrySize
	local := 0
	for remaining > 0 {
		want := int64(len(chunk))
		if remaining < want {
			want = remaining
		}
		if _, err := io.ReadFull(r, chunk[:want]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return ErrTruncated
			}
			return fmt.Errorf("shmlog: read entries: %w", err)
		}
		for off := int64(0); off < want; off += EntrySize {
			*slots = append(*slots, refRawSlot{
				w0:    binary.LittleEndian.Uint64(chunk[off:]),
				w1:    binary.LittleEndian.Uint64(chunk[off+8:]),
				w2:    binary.LittleEndian.Uint64(chunk[off+16:]),
				seg:   seg,
				local: local,
			})
			local++
		}
		remaining -= want
	}
	return nil
}

// refClampEntries bounds the initial allocation hint for decoded logs.
func refClampEntries(tail uint64) int {
	const hintLimit = 1 << 16
	if tail > hintLimit {
		return hintLimit
	}
	return int(tail)
}

// decodeErrs are the typed decode errors whose errors.Is identity the
// decoder must keep.
var decodeErrs = []error{ErrEmptyLog, ErrTruncatedHeader, ErrTruncated, ErrBadMagic, ErrBadVersion, ErrBadShards}

// diffReference decodes data with Read (through a sized reader and, when
// slow is set, a one-byte-at-a-time reader) and with referenceRead, and
// describes the first disagreement, or returns "" when they agree exactly.
func diffReference(data []byte, slow bool) string {
	want, werr := referenceRead(bytes.NewReader(data))
	readers := []io.Reader{bytes.NewReader(data)}
	if slow {
		readers = append(readers, iotest.OneByteReader(bytes.NewReader(data)))
	}
	for _, r := range readers {
		got, gerr := Read(r)
		if (gerr == nil) != (werr == nil) {
			return fmt.Sprintf("Read err %v, reference err %v", gerr, werr)
		}
		if werr != nil {
			for _, target := range decodeErrs {
				if errors.Is(gerr, target) != errors.Is(werr, target) {
					return fmt.Sprintf("errors.Is(_, %v): Read %v (%v), reference %v (%v)",
						target, errors.Is(gerr, target), gerr, errors.Is(werr, target), werr)
				}
			}
			continue
		}
		if !reflect.DeepEqual(got.words, want.words) {
			return fmt.Sprintf("decoded words differ (len %d vs %d)", len(got.words), len(want.words))
		}
		type view struct {
			Len, Capacity, Shards, SegCap                    int
			Version, SourceVersion, PID, ProfilerAddr, Flags uint64
			SamplePeriod, Counter, Tail, Dropped             uint64
			Sync                                             Sync
			Entries                                          []Entry
		}
		look := func(l *Log) view {
			return view{l.Len(), l.Capacity(), l.Shards(), l.segCap,
				l.Version(), l.SourceVersion(), l.PID(), l.ProfilerAddr(), l.Flags(),
				l.SamplePeriod(), l.LoadCounter(), l.Tail(), l.Dropped(), l.sync, l.Entries()}
		}
		if g, w := look(got), look(want); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("decoded logs differ:\n got %+v\nwant %+v", g, w)
		}
	}
	return ""
}

// streamWords is a little-endian word stream under construction.
type streamWords []byte

func (s *streamWords) put(words ...uint64) {
	for _, w := range words {
		*s = binary.LittleEndian.AppendUint64(*s, w)
	}
}

// simSegments simulates threads writing through batched blocks onto
// shards segments and returns each segment's slots (three words each).
// Several threads share a segment, so blocks interleave and a segment's
// counters are not sorted; counter steps of 0 give equal counters across
// segments; a thread's unused block tail is left as tombstones or as
// in-flight zero-thread slots (some with a stale counter word).
func simSegments(rng *rand.Rand, shards, threadsPerShard, events int) [][][3]uint64 {
	type thread struct {
		tid   uint64
		seg   int
		block []int
	}
	segs := make([][][3]uint64, shards)
	var threads []*thread
	for s := 0; s < shards; s++ {
		for k := 0; k < threadsPerShard; k++ {
			threads = append(threads, &thread{tid: uint64(shards*(k+1) + s), seg: s})
		}
	}
	counter := uint64(rng.Intn(4))
	for e := 0; e < events; e++ {
		th := threads[rng.Intn(len(threads))]
		if len(th.block) == 0 {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				th.block = append(th.block, len(segs[th.seg]))
				segs[th.seg] = append(segs[th.seg], [3]uint64{})
			}
		}
		counter += uint64(rng.Intn(3))
		w0 := counter
		if rng.Intn(2) == 0 {
			w0 |= kindBit
		}
		segs[th.seg][th.block[0]] = [3]uint64{w0, 0x400000 + uint64(rng.Intn(8))*16, th.tid}
		th.block = th.block[1:]
	}
	for _, th := range threads {
		for _, slot := range th.block {
			switch rng.Intn(3) {
			case 0:
				segs[th.seg][slot] = [3]uint64{counter, 0, TombstoneTID}
			case 1:
				segs[th.seg][slot] = [3]uint64{counter + 1, 0x400010, 0}
			}
		}
	}
	return segs
}

// randomStream renders a random persisted stream: v1, v2 or v3 with 1–8
// shards, raw regions (capacity above the tail, tail above the capacity),
// and occasional damage — implausible counts, a bad magic or version,
// trailing bytes, or a truncation anywhere.
func randomStream(rng *rand.Rand) []byte {
	var s streamWords
	pid, paddr, counter := uint64(rng.Intn(1000)), uint64(0x400000), uint64(rng.Intn(1<<20))
	flags := uint64(rng.Intn(64))
	version := []uint64{VersionV1, VersionV2, Version, Version, Version}[rng.Intn(5)]
	damage := rng.Intn(12)
	if version == Version {
		shards := 1 + rng.Intn(8)
		segs := simSegments(rng, shards, 1+rng.Intn(3), rng.Intn(60))
		var caps, tails []uint64
		total := uint64(0)
		for _, seg := range segs {
			c, tl := uint64(len(seg)), uint64(len(seg))
			switch rng.Intn(4) {
			case 0:
				c += uint64(rng.Intn(5)) // raw region: never-reserved slots above the tail
			case 1:
				tl += uint64(1 + rng.Intn(5)) // writers raced past the end
			}
			caps, tails = append(caps, c), append(tails, tl)
			total += c
		}
		shardsWord := uint64(shards)
		switch damage {
		case 0:
			shardsWord = 0
		case 1:
			shardsWord = MaxShards + 1
		case 2:
			shardsWord = MaxShards
		case 3:
			total = maxEntries + 1
		case 4:
			caps[0] = maxEntries + 1
		}
		header := [HeaderWords]uint64{
			wordMagic: Magic, wordVersion: Version, wordPID: pid, wordCapacity: total,
			wordProfilerAddr: paddr, wordShards: shardsWord, wordFlags: flags,
			wordSamplePeriod: uint64(rng.Intn(3)), wordTail: total, wordCounter: counter,
		}
		s.put(header[:]...)
		for i, seg := range segs {
			s.put(tails[i], caps[i], uint64(rng.Intn(3)), 0, 0, 0, 0, 0)
			for _, slot := range seg {
				s.put(slot[:]...)
			}
			for k := uint64(len(seg)); k < caps[i] && k < uint64(len(seg))+8; k++ {
				s.put(0, 0, 0)
			}
		}
	} else {
		slots := simSegments(rng, 1, 1+rng.Intn(4), rng.Intn(60))[0]
		capacity, tail := uint64(len(slots)), uint64(len(slots))
		switch rng.Intn(4) {
		case 0:
			capacity += uint64(rng.Intn(5))
		case 1:
			tail += uint64(1 + rng.Intn(5))
		case 2:
			tail -= uint64(min(len(slots), rng.Intn(3)))
		}
		if damage == 3 {
			capacity = maxEntries + 1
		}
		if version == VersionV1 {
			s.put(flags, VersionV1, pid, capacity, tail, paddr, counter, Magic)
		} else {
			header := [HeaderWords]uint64{
				wordMagic: Magic, wordVersion: VersionV2, wordPID: pid, wordCapacity: capacity,
				wordProfilerAddr: paddr, wordFlags: flags, wordTail: tail, wordCounter: counter,
			}
			s.put(header[:]...)
		}
		for _, slot := range slots {
			s.put(slot[:]...)
		}
	}
	data := []byte(s)
	switch damage {
	case 5:
		binary.LittleEndian.PutUint64(data[8:], 7) // unknown version (v1 and v2/v3 both keep it in word 1)
	case 6:
		data[0] ^= 0x40 // bad magic (v2/v3); v1 keeps its magic in word 7
		if version == VersionV1 {
			data[v1WordMagic*8] ^= 0x40
		}
	case 7:
		data = append(data, 0xff, 0, 0, 0, 0, 0, 0, 0, 1)
	case 8, 9:
		data = data[:rng.Intn(len(data)+1)]
	}
	return data
}

// TestReadMatchesReference is the seeded property test: Read agrees with
// the frozen reference decoder on random v1, v2 and v3 streams.
func TestReadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		data := randomStream(rng)
		if d := diffReference(data, i%10 == 0); d != "" {
			t.Fatalf("stream %d (%d bytes): %s", i, len(data), d)
		}
	}
}

// TestReadMatchesReferenceAtEveryCut truncates one stream of each format
// at every byte offset, so a cut lands inside every header, segment header
// and entry region.
func TestReadMatchesReferenceAtEveryCut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var v1, v2, v3 []byte
	for v1 == nil || v2 == nil || v3 == nil {
		data := randomStream(rng)
		want, err := referenceRead(bytes.NewReader(data))
		if err != nil || want.Len() < 4 {
			continue
		}
		switch {
		case want.SourceVersion() == VersionV1 && v1 == nil:
			v1 = data
		case want.SourceVersion() == VersionV2 && v2 == nil:
			v2 = data
		case want.SourceVersion() == Version && v3 == nil && binary.LittleEndian.Uint64(data[wordShards*8:]) > 2:
			v3 = data
		}
	}
	for _, data := range [][]byte{v1, v2, v3} {
		for cut := 0; cut <= len(data); cut++ {
			if d := diffReference(data[:cut], false); d != "" {
				t.Fatalf("v%d stream cut at %d of %d bytes: %s",
					binary.LittleEndian.Uint64(data[8:]), cut, len(data), d)
			}
		}
	}
}

// FuzzReadReference checks Read against the frozen reference decoder on
// arbitrary input.
func FuzzReadReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(randomStream(rng))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := diffReference(data, false); d != "" {
			t.Fatal(d)
		}
	})
}

// TestDecodeForgedHeaders feeds short streams whose headers claim 2^32
// entries or MaxShards segments: each must fail with a typed error and
// allocate in proportion to the stream, not to the claim.
func TestDecodeForgedHeaders(t *testing.T) {
	var v1, v2, v3shards, v3seg streamWords
	v1.put(0, VersionV1, 1, maxEntries, maxEntries, 0, 0, Magic)
	v1.put(1, 2, 3)
	v2.put(Magic, VersionV2, 1, maxEntries)
	v2.put(make([]uint64, wordTail-4)...)
	v2.put(maxEntries)
	v2.put(make([]uint64, HeaderWords-wordTail-1)...)
	v2.put(1, 2, 3)
	head := [HeaderWords]uint64{wordMagic: Magic, wordVersion: Version, wordShards: MaxShards}
	v3shards.put(head[:]...)
	v3shards.put(0, 0, 0, 0, 0, 0, 0, 0)
	v3shards.put(1, 1, 0, 0, 0, 0, 0, 0, 1, 2, 3)
	head[wordShards] = 1
	v3seg.put(head[:]...)
	v3seg.put(maxEntries, maxEntries, 0, 0, 0, 0, 0, 0, 1, 2, 3)
	for name, data := range map[string][]byte{"v1": v1, "v2": v2, "v3-shards": v3shards, "v3-segment": v3seg} {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrTruncated) {
				t.Fatalf("err = %v, want ErrTruncated", err)
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				_, _ = Read(bytes.NewReader(data))
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(4*len(data)+1024) {
				t.Fatalf("%d-byte stream allocated %d B per Read", len(data), per)
			}
		})
	}
}

// TestMergeByCounterMatchesStableSort checks the shared counter merge
// against a stable sort by counter on inputs with few and many runs and
// many equal counters, and that sorted input comes back uncopied.
func TestMergeByCounterMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		in := make([]Entry, rng.Intn(200))
		spread := 1 + rng.Intn(50)
		for j := range in {
			in[j] = Entry{Kind: KindCall, Counter: uint64(rng.Intn(spread)), ThreadID: uint64(j)}
		}
		if i%5 == 0 {
			sort.SliceStable(in, func(a, b int) bool { return in[a].Counter < in[b].Counter })
		}
		orig := append([]Entry{}, in...)
		want := append([]Entry{}, in...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].Counter < want[b].Counter })
		got := MergeByCounter(in)
		if !reflect.DeepEqual(append([]Entry{}, got...), want) {
			t.Fatalf("input %d: merge differs from stable sort", i)
		}
		if !reflect.DeepEqual(in, orig) {
			t.Fatalf("input %d: merge modified its input", i)
		}
		if sorted := len(in) > 0 && reflect.DeepEqual(in, want); sorted && &got[0] != &in[0] {
			t.Fatalf("input %d: sorted input was copied", i)
		}
	}
}
