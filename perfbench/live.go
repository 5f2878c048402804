package main

import (
	"runtime"
	"sync"
	"time"

	"teeperf/internal/agent"
)

// livePath is the fleet: mmap'd sessions written by the application and
// watched by one agent.
type livePath struct {
	e  *env
	sz sizes
	a  *agent.Agent

	sent      [goroutines]int // bursts each goroutine appended, round-robin over its sessions
	bad       int
	genLag    time.Duration
	tickLag   time.Duration
	latencies []float64 // every timed scrape's duration in ms
	scraped   int
	busy      time.Duration
	objects   uint64
	degraded  int
}

func newLivePath(e *env, sz sizes) *livePath {
	l := &livePath{e: e, sz: sz, a: agent.New(agent.Config{})}
	for _, s := range e.sessions {
		s.name = l.a.Register(s.path)
	}
	return l
}

func (l *livePath) close() { l.a.Close() }

// round runs the fleet for budget: the two load-generator goroutines append
// bursts round-robin to their sessions on a fixed schedule (open loop: the
// application never waits for the agent), while this goroutine calls
// Agent.ScrapeOnce every scrapeTick, as Agent.Start's loop does. A scrape's
// latency is the duration of one ScrapeOnce cycle, the quantity the agent's
// own scrape-latency histogram exports.
func (l *livePath) round(budget time.Duration, tr *tracer, parent int) map[string]metric {
	id := tr.begin("bench.live", parent)
	defer tr.finish(id)
	e := l.e
	runtime.GC() // collect the other paths' garbage outside the round
	earlier := len(l.latencies)
	start := time.Now()
	deadline := start.Add(budget)
	var (
		wg  sync.WaitGroup
		bad [goroutines]int
		lag [goroutines]time.Duration
	)
	for g := 0; g < goroutines; g++ {
		var own []*liveSession
		for _, s := range e.sessions {
			if s.g == g {
				own = append(own, s)
			}
		}
		every := time.Duration(float64(time.Second) / e.liveRate(l.sz, g))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * every)
				if !due.Before(deadline) {
					return
				}
				sleepUntil(due)
				lag[g] = max(lag[g], time.Since(due))
				s := own[l.sent[g]%len(own)]
				l.sent[g]++
				if s.burst() != e.liveShape.checksum[g] {
					bad[g]++
				}
				s.bursts++
			}
		}(g)
	}

	for j := 1; ; j++ {
		due := start.Add(time.Duration(j) * scrapeTick)
		if !due.Before(deadline) {
			break
		}
		sleepUntil(due)
		l.tickLag = max(l.tickLag, time.Since(due))
		var n int
		lc, _ := tr.call("agent.ScrapeOnce", id, tr != nil, func() error {
			n = l.a.ScrapeOnce()
			return nil
		})
		l.latencies = append(l.latencies, ms(lc.dur))
		l.busy += lc.dur
		l.objects += lc.alloc.objects
		l.scraped += n
		if tr != nil {
			for _, info := range l.a.Sessions() {
				if info.Degraded {
					l.degraded++
				}
			}
		}
	}
	wg.Wait()
	for g := range bad {
		l.bad += bad[g]
		l.genLag = max(l.genLag, lag[g])
	}
	lat := l.latencies[earlier:]
	return map[string]metric{
		"scrape_p50_ms": {quantile(lat, 0.5), "ms"},
		"scrape_p90_ms": {quantile(lat, 0.9), "ms"},
	}
}

// finish drains what the last tick left behind (checked, not timed) and
// checks that the agent saw exactly what the application appended: every
// entry drained, and per function as many calls as were made.
func (l *livePath) finish(r *passResult) {
	drained := l.scraped + l.a.ScrapeOnce()
	r.check(l.bad == 0, "live: %d bursts returned a wrong checksum", l.bad)
	var appended int
	for _, s := range l.e.sessions {
		want := s.bursts * l.e.liveShape.events[s.g]
		appended += want
		sess := l.a.Session(s.name)
		info := sess.Snapshot()
		r.check(int(info.Entries) == want, "live: session %s drained %d of %d entries", s.name, info.Entries, want)
		r.check(info.Dropped == 0, "live: session %s dropped %d events", s.name, info.Dropped)
		got := make(map[string]uint64)
		for _, f := range sess.Table(0).Funcs {
			got[f.Name] += f.Calls
		}
		for name, n := range l.e.liveShape.calls[s.g] {
			r.check(got[name] == n*uint64(s.bursts), "live: session %s: agent counts %d calls of %s, the application made %d",
				s.name, got[name], name, n*uint64(s.bursts))
		}
		if s.bursts > 0 {
			r.check(len(got) == len(l.e.liveShape.calls[s.g]), "live: session %s: agent saw %d functions, the application calls %d",
				s.name, len(got), len(l.e.liveShape.calls[s.g]))
		}
	}
	r.attempted += int64(appended)
	r.failed += int64(appended - drained)
	r.check(drained == appended, "live: agent drained %d of %d appended entries", drained, appended)
	r.check(len(l.latencies) > 0, "live: no scrape ran")

	// A round holds a few hundred scrapes, too few for a p99 of its own,
	// so the p99 is taken over every scrape of the pass.
	r.layer["scrape_p99_ms"] = metric{quantile(l.latencies, 0.99), "ms"}
	if l.scraped > 0 {
		r.layer["agent.scrape_ns_per_entry"] = metric{float64(l.busy) / float64(l.scraped), "ns"}
		r.layer["agent.allocs_per_entry"] = metric{float64(l.objects) / float64(l.scraped), "count"}
	}
	r.layer["agent.degraded_cycles"] = metric{float64(l.degraded), "count"}
	r.note("live: %d scrapes, %d entries appended to %d sessions, generator at most %.3f ms late, scrape tick at most %.3f ms late",
		len(l.latencies), appended, len(l.e.sessions), ms(l.genLag), ms(l.tickLag))
}
