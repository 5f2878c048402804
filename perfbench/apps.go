package main

import (
	"fmt"

	"teeperf/internal/probe"
	"teeperf/internal/stress"
	"teeperf/internal/symtab"
)

// goroutines is the load generator's parallelism: every workload drives its
// application from exactly this many goroutines (the 2-CPU host's nproc).
const goroutines = 2

// burst is one unit of application work: a fixed, seeded sequence of calls
// through the hooks it was bound to. Every call replays the same sequence,
// so its checksum and its per-function call counts are exact constants.
type burst func() uint64

// app is a workload's instrumented program. Goroutine g of the load
// generator runs the burst newBurst(g, ...) returns.
type app struct {
	register func(tab *symtab.Table) error
	newBurst func(g int, h probe.Hooks, addrOf func(string) uint64, seed uint64) (burst, error)
}

// stressApp runs the stress personalities fanout (goroutine 0: wide trees,
// many distinct stacks) and recursion (goroutine 1: deep stacks).
func stressApp() app {
	pers := []struct {
		p  stress.Personality
		tn stress.Tuning
	}{
		{stress.FanOutTree(), stress.Tuning{Depth: 3, FanOut: 8, Iterations: 1}},
		{stress.Recursion(), stress.Tuning{Depth: 128, Iterations: 8}},
	}
	return app{
		register: func(tab *symtab.Table) error {
			for _, p := range pers {
				if err := p.p.RegisterSymbols(tab); err != nil {
					return err
				}
			}
			return nil
		},
		newBurst: func(g int, h probe.Hooks, addrOf func(string) uint64, seed uint64) (burst, error) {
			p := pers[g]
			tn := p.tn
			tn.Seed = seed
			run, err := p.p.New(stress.Config{Hooks: h, AddrOf: addrOf}, p.p.Tuning(tn, false))
			if err != nil {
				return nil, err
			}
			return func() uint64 {
				sum, _ := run() // fanout and recursion never fail
				return sum
			}, nil
		},
	}
}

// treeApp walks roots seeded call trees per burst. Level d of a tree calls
// one of levels[d]'s functions, which calls 0..fanout children from level
// d+1; each call does one splitmix step of work.
func treeApp(prefix string, levels [][]string, roots, fanout int) app {
	return app{
		register: func(tab *symtab.Table) error {
			line := 1
			for _, level := range levels {
				for _, name := range level {
					if _, err := tab.Register(name, 64, prefix+".go", line); err != nil {
						return fmt.Errorf("register %s: %w", name, err)
					}
					line += 10
				}
			}
			return nil
		},
		newBurst: func(g int, h probe.Hooks, addrOf func(string) uint64, seed uint64) (burst, error) {
			addrs := make([][]uint64, len(levels))
			for d, level := range levels {
				for _, name := range level {
					a := addrOf(name)
					if a == 0 {
						return nil, fmt.Errorf("symbol %q not registered", name)
					}
					addrs[d] = append(addrs[d], a)
				}
			}
			var visit func(d int, state *uint64) uint64
			visit = func(d int, state *uint64) uint64 {
				r := splitmix64(state)
				f := addrs[d][r%uint64(len(addrs[d]))]
				h.Enter(f)
				sum := r
				if d+1 < len(addrs) {
					for n := (r >> 32) % uint64(fanout+1); n > 0; n-- {
						sum ^= visit(d+1, state)
					}
				}
				h.Exit(f)
				return sum
			}
			base := seed ^ uint64(g+1)*0x9e3779b97f4a7c15
			return func() uint64 {
				state := base
				var sum uint64
				for i := 0; i < roots; i++ {
					sum += visit(0, &state)
				}
				return sum
			}, nil
		},
	}
}

// shallowApp is the live fleet's application: short two-level request
// bursts over seven functions.
func shallowApp() app {
	return treeApp("fleet", [][]string{
		{"req_get", "req_put", "req_scan", "req_del"},
		{"io_read", "io_write", "io_sync"},
	}, 64, 2)
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// countHooks counts calls per address; it is the oracle for the exact
// event counts of one burst.
type countHooks struct {
	calls  map[uint64]uint64
	events int
}

func (c *countHooks) Enter(addr uint64) { c.calls[addr]++; c.events++ }
func (c *countHooks) Exit(uint64)       { c.events++ }

// shape is the exact per-burst footprint of each load-generator goroutine.
type shape struct {
	// events[g] is the number of probe events one burst of goroutine g emits.
	events [goroutines]int
	// calls[g] maps function name to calls per burst of goroutine g.
	calls [goroutines]map[string]uint64
	// checksum[g] is the burst's result, the same with or without probes.
	checksum [goroutines]uint64
}

// measureShape runs one burst per goroutine under counting hooks.
func measureShape(a app, tab *symtab.Table, seed uint64) (shape, error) {
	var sh shape
	for g := 0; g < goroutines; g++ {
		h := &countHooks{calls: make(map[uint64]uint64)}
		b, err := a.newBurst(g, h, tab.Addr, seed)
		if err != nil {
			return sh, err
		}
		sh.checksum[g] = b()
		sh.events[g] = h.events
		sh.calls[g] = make(map[string]uint64, len(h.calls))
		for addr, n := range h.calls {
			sh.calls[g][tab.Name(addr)] += n
		}
	}
	return sh, nil
}

// expectedCalls is the per-function call count of bursts[g] bursts of each
// goroutine.
func (sh shape) expectedCalls(bursts [goroutines]int) map[string]uint64 {
	out := make(map[string]uint64)
	for g := 0; g < goroutines; g++ {
		for name, n := range sh.calls[g] {
			out[name] += n * uint64(bursts[g])
		}
	}
	return out
}
