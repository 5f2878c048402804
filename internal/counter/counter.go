// Package counter provides the time sources used by TEE-Perf probes.
//
// The paper's key portability trick is the software counter: when no
// hardware counter is readable from inside the TEE, the recorder sacrifices
// one core to a thread that increments a counter word in the log header in
// a tight loop. The counter is monotonic and fine-grained enough for
// method-level *relative* profiling; absolute accuracy is explicitly not a
// goal. This package also provides a TSC-like source (backed by the host
// monotonic clock) and a deterministic virtual source for tests.
package counter

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Source is a monotonic tick source sampled by probes.
type Source interface {
	// Now returns the current tick value. Ticks are monotonically
	// non-decreasing; their absolute rate is source-specific.
	Now() uint64
}

// Word is the destination the software counter increments — in TEE-Perf
// this is the counter word in the shared-memory log header, so the counter
// loop touches only the header cache line. *shmlog.Log satisfies Word.
type Word interface {
	// AddCounter atomically advances the counter and returns the new value.
	AddCounter(delta uint64) uint64
	// LoadCounter atomically reads the counter.
	LoadCounter() uint64
}

// ErrNotRunning is returned by Stop when the counter was never started or
// already stopped.
var ErrNotRunning = errors.New("counter: not running")

// Software is the paper's software counter: a dedicated goroutine
// incrementing a shared word in a tight loop. It implements Source by
// reading the word. The target word can be swapped at run time (Retarget),
// which the recorder uses to carry the counter across log rotations.
type Software struct {
	word atomic.Pointer[wordBox]

	// hook, when non-nil, is called once per outer loop iteration (every
	// 1024 increments) — the recorder's fault-injection wiring uses it to
	// model a stalled counter thread. The nil check costs one branch per
	// 1024 adds, so an unhooked counter's rate is unaffected.
	hook func()

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	running bool
}

// wordBox wraps the interface so it can sit behind an atomic pointer.
type wordBox struct {
	w Word
}

var _ Source = (*Software)(nil)

// NewSoftware returns a software counter targeting word. The counter does
// not run until Start is called.
func NewSoftware(word Word) *Software {
	s := &Software{}
	s.word.Store(&wordBox{w: word})
	return s
}

// Retarget atomically points the counter at a new word, seeding it with
// the old word's final value so ticks stay monotonic across the swap.
func (s *Software) Retarget(word Word) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.word.Load().w
	// Pause the loop so the old word's value is final before seeding.
	wasRunning := s.running
	if wasRunning {
		close(s.stop)
		<-s.done
		s.running = false
	}
	if have, want := word.LoadCounter(), old.LoadCounter(); have < want {
		word.AddCounter(want - have)
	}
	s.word.Store(&wordBox{w: word})
	if wasRunning {
		s.launch()
	}
}

// OnTick installs fn to be called once per outer loop iteration (every
// 1024 increments). It must be called before Start; the fault-injection
// harness uses it to stall the counter thread deterministically.
func (s *Software) OnTick(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		panic("counter: OnTick after Start")
	}
	s.hook = fn
}

// Start launches the counter loop and returns once the loop has published
// its first batch of ticks, so a recording that starts after Start never
// sees a counter the loop has not yet advanced. Starting an already-running
// counter is a no-op.
func (s *Software) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	s.launch()
}

// launch starts the loop goroutine and waits for its first batch. The
// caller holds s.mu.
func (s *Software) launch() {
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.running = true
	ticking := make(chan struct{})
	go s.loop(s.stop, s.done, ticking)
	<-ticking
}

// loop closes ticking after its first batch of increments, before the
// first hook call, so a hook that stalls the counter cannot hold up Start.
func (s *Software) loop(stop, done, ticking chan struct{}) {
	defer close(done)
	// The inner loop batches the stop-channel check so the common path is
	// a single atomic add, keeping the counter rate (and therefore its
	// resolution) high while the goroutine remains stoppable.
	for {
		select {
		case <-stop:
			return
		default:
		}
		w := s.word.Load().w
		for i := 0; i < 1024; i++ {
			w.AddCounter(1)
		}
		if ticking != nil {
			close(ticking)
			ticking = nil
		}
		if s.hook != nil {
			s.hook()
		}
	}
}

// Stop terminates the counter loop and waits for it to exit.
func (s *Software) Stop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return ErrNotRunning
	}
	close(s.stop)
	<-s.done
	s.running = false
	return nil
}

// Running reports whether the counter loop is active.
func (s *Software) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Now reads the current counter value.
func (s *Software) Now() uint64 { return s.word.Load().w.LoadCounter() }

// Reader is a passive source that samples a counter word some other
// process advances — the attached application's view of the software
// counter in cross-process mode: the recorder process runs the increment
// loop against the shared mapping, the instrumented application only reads
// the word. It is the paper's TEE-side half of the software counter.
type Reader struct {
	word Word
}

var _ Source = (*Reader)(nil)

// NewReader returns a source that reads word without ever advancing it.
func NewReader(word Word) *Reader { return &Reader{word: word} }

// Now samples the externally-advanced counter word.
func (r *Reader) Now() uint64 { return r.word.LoadCounter() }

// TSC is a hardware-timestamp-like source backed by the host monotonic
// clock, reporting nanoseconds since construction. It stands in for rdtsc
// on platforms where the TEE can read a hardware counter directly.
type TSC struct {
	start time.Time
}

var _ Source = (*TSC)(nil)

// NewTSC returns a TSC source anchored at the current instant.
func NewTSC() *TSC { return &TSC{start: time.Now()} }

// Now returns nanoseconds elapsed since the source was created.
func (t *TSC) Now() uint64 { return uint64(time.Since(t.start)) }

// Virtual is a deterministic source for tests: every Now call advances the
// tick by a fixed step, and the clock can be advanced manually.
type Virtual struct {
	ticks atomic.Uint64
	step  uint64
}

var _ Source = (*Virtual)(nil)

// NewVirtual returns a virtual source that advances by step per Now call.
// A step of 0 yields a clock that only moves via Advance.
func NewVirtual(step uint64) *Virtual {
	return &Virtual{step: step}
}

// Now returns the current tick, advancing the clock by the configured step.
func (v *Virtual) Now() uint64 {
	if v.step == 0 {
		return v.ticks.Load()
	}
	return v.ticks.Add(v.step)
}

// Advance moves the clock forward by delta ticks.
func (v *Virtual) Advance(delta uint64) { v.ticks.Add(delta) }

// Set forces the clock to an absolute value (test setup only).
func (v *Virtual) Set(value uint64) { v.ticks.Store(value) }

// Resolution measures the tick rate of a source over the given window and
// returns ticks per millisecond. It is used by the A2 ablation to compare
// the software counter against the TSC.
func Resolution(src Source, window time.Duration) (ticksPerMS float64, err error) {
	if window <= 0 {
		return 0, fmt.Errorf("counter: window must be positive, got %v", window)
	}
	begin := src.Now()
	t0 := time.Now()
	time.Sleep(window)
	elapsed := time.Since(t0)
	end := src.Now()
	if end < begin {
		return 0, fmt.Errorf("counter: source went backwards (%d -> %d)", begin, end)
	}
	ms := float64(elapsed) / float64(time.Millisecond)
	return float64(end-begin) / ms, nil
}
