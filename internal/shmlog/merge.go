package shmlog

// Counter merge: the one place the read side orders a multi-segment
// stream by the global counter value. Every consumer — the strict decoder,
// the lenient salvage, and the history store's ingest, compaction and
// window queries — wants exactly the order a stable sort by counter
// produces: (counter, stream position). A stream is split into maximal
// runs of non-decreasing counters, and the runs are merged choosing the
// smallest (counter, run index) head. Runs are contiguous and numbered in
// stream order, so run index order is position order among equal counters,
// and within a run the counters never decrease — the merge therefore emits
// exactly the stable-sort order. One thread per segment makes one run per
// segment and a linear k-way merge; adversarial input with many runs costs
// O(n log runs), never worse than the sort.

// run is one maximal stretch of stream positions [pos, end), step apart,
// whose counters never decrease; head caches the counter at pos.
type run struct {
	pos, end int
	head     uint64
}

// appendRuns splits the positions start, start+step, ... below end into
// maximal non-decreasing runs of key and appends them to runs.
func appendRuns(runs []run, start, end, step int, key func(pos int) uint64) []run {
	if start >= end {
		return runs
	}
	cur := run{pos: start, head: key(start)}
	prev := cur.head
	for p := start + step; p < end; p += step {
		k := key(p)
		if k < prev {
			cur.end = p
			runs = append(runs, cur)
			cur = run{pos: p, head: k}
		}
		prev = k
	}
	cur.end = end
	return append(runs, cur)
}

// mergeRuns emits every position of runs in (counter, run index) order —
// the stable-sort order — as stretches [from, to) of consecutive positions
// within one run. key must be the function the runs were split by. runs is
// consumed.
func mergeRuns(runs []run, step int, key func(pos int) uint64, emit func(from, to int)) {
	before := func(a, b int) bool {
		ra, rb := &runs[a], &runs[b]
		return ra.head < rb.head || ra.head == rb.head && a < b
	}
	// h is a binary min-heap of run indexes.
	h := make([]int, len(runs))
	for i := range h {
		h[i] = i
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && before(h[c+1], h[c]) {
				c++
			}
			if !before(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 1 {
		// The top run keeps the lead while its head sorts before the
		// runner-up, the smaller child of the root; emit that whole
		// stretch at once.
		c := 1
		if len(h) > 2 && before(h[2], h[1]) {
			c = 2
		}
		ti, rival := h[0], runs[h[c]]
		top := &runs[ti]
		from := top.pos
		for top.pos += step; top.pos < top.end; top.pos += step {
			top.head = key(top.pos)
			if top.head > rival.head || top.head == rival.head && ti > h[c] {
				break
			}
		}
		emit(from, top.pos)
		if top.pos >= top.end {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	if len(h) == 1 {
		emit(runs[h[0]].pos, runs[h[0]].end)
	}
}

// MergeByCounter returns entries ordered by (Counter, input position) —
// exactly what a stable sort by Counter yields — using the run merge.
// Input already in counter order is returned as is, without copying;
// otherwise the result is a new slice and entries is left unchanged.
func MergeByCounter(entries []Entry) []Entry {
	key := func(i int) uint64 { return entries[i].Counter }
	runs := appendRuns(nil, 0, len(entries), 1, key)
	if len(runs) <= 1 {
		return entries
	}
	out := make([]Entry, 0, len(entries))
	mergeRuns(runs, 1, key, func(from, to int) { out = append(out, entries[from:to]...) })
	return out
}
