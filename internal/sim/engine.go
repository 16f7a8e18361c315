// The coroutines below come from the iter package (Go 1.23). go.mod stays
// at go 1.22 so dependent modules pinned there still build; this
// constraint raises the language version for this file alone.

//go:build go1.23

// Package sim is a deterministic discrete-event simulation kernel.
//
// It provides a virtual clock, coroutine-style processes, FIFO resource
// servers with utilization accounting, bandwidth pipes, and condition
// signals. The Cudele cluster (clients, metadata servers, object storage
// daemons, monitor) is modeled as sim processes that execute the real
// metadata code paths while charging virtual time to simulated devices.
//
// Each process runs on an iter.Pull coroutine. Only one process runs at a
// time: the event loop resumes a process by switching into its coroutine,
// and the process switches back when it blocks or finishes, so simulations
// are fully deterministic for a given seed and schedule. A Sleep whose
// wake time comes strictly before every queued event advances the clock
// inline without switching at all.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"strings"
	"time"

	"cudele/internal/obs"
	"cudele/internal/runtime"
	"cudele/internal/trace"
)

// Time is a point in virtual time, in nanoseconds since simulation
// start. It aliases runtime.Time so virtual timestamps flow through the
// backend-neutral interfaces without conversion.
type Time = runtime.Time

// Duration is a span of virtual time in nanoseconds. It is convertible to
// and from time.Duration.
type Duration = time.Duration

// event is a scheduled callback. Events are stored by value in the queue
// so scheduling does not allocate (beyond amortized slice growth): the
// simulation schedules one event per operation step, making this the
// hottest allocation site in the whole substrate.
type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events run FIFO
	fn  func()
}

// before orders events by time, then FIFO by sequence number. The (at,
// seq) pair is unique per event, so the pop order is a total order and
// does not depend on the heap's internal layout.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of event values. It replaces
// container/heap to avoid both the per-event heap allocation and the
// interface{} boxing on every Push/Pop.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the fn reference
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].before(&h[smallest]) {
			smallest = l
		}
		if r < n && h[r].before(&h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// Engine owns the virtual clock and the event queue.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	rng     *rand.Rand
	running bool
	until   Time // bound of the current Run, read by the Sleep fast path

	procs   int // live process count, for leak detection
	live    map[*Proc]struct{}
	stopped bool

	// idle holds the coroutines of finished processes for Go to reuse;
	// Shutdown ends them.
	idle []*worker

	// tracer is the span recorder every layer records into; nil (the
	// default) disables tracing with zero overhead. It lives on the
	// engine because the engine is the one object all simulated
	// components already share.
	tracer *trace.Recorder

	// flight is the chaos flight recorder; nil (the default) disables
	// it, and recording follows the same never-perturb contract as the
	// tracer.
	flight *obs.Flight

	// resources registers every Resource (and Pipe) created on this
	// engine so Run can finalize their busy-time integrals when the
	// event loop stops — without it, accounting is only updated on
	// state changes and a resource still held (or long idle) at the end
	// of a run reports a stale busyArea to raw snapshot readers.
	resources []*Resource
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// source is seeded deterministically with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:  rand.New(rand.NewSource(seed)),
		live: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation processes (never concurrently).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Tracer returns the engine's span recorder; nil means tracing is
// disabled (a nil *trace.Recorder accepts and drops every call).
func (e *Engine) Tracer() *trace.Recorder { return e.tracer }

// SetTracer installs a span recorder. Pass nil to disable tracing.
// Recording charges no virtual time and consumes no randomness, so a
// traced engine executes the exact same schedule as an untraced one.
func (e *Engine) SetTracer(r *trace.Recorder) { e.tracer = r }

// Flight returns the chaos flight recorder; nil means recording is off.
func (e *Engine) Flight() *obs.Flight { return e.flight }

// SetFlight installs a flight recorder. Pass nil to disable it. Like
// the tracer, recording charges no virtual time and consumes no
// randomness, so schedules stay byte-identical with it on.
func (e *Engine) SetFlight(f *obs.Flight) { e.flight = f }

// Exclusive implements runtime.Runtime. The simulator serializes
// everything through the event loop, so fn runs inline — but only from
// outside the loop; an external caller cannot safely interleave with a
// running simulation.
func (e *Engine) Exclusive(fn func()) {
	if e.running {
		panic("sim: Engine.Exclusive called while the event loop is running")
	}
	fn()
}

// Schedule arranges for fn to run at time e.Now()+d. Scheduling with d <= 0
// runs fn as soon as the current process yields.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.queue.push(event{at: e.now + Time(d), seq: e.seq, fn: fn})
}

// Go spawns a new process executing fn. The process starts when the engine
// next reaches the current virtual time in its event loop.
//
// The process body runs on a worker coroutine, taken when the process
// starts; only the event loop (and Shutdown, outside it) resumes it. A
// panic other than the kill signal propagates out of the resuming call,
// so it surfaces from Engine.Run with its original value.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wake = func() { p.w.next() }
	e.procs++
	e.live[p] = struct{}{}
	e.Schedule(0, func() {
		p.w = e.worker()
		p.w.proc, p.w.fn = p, fn
		p.w.next() // runs until the process blocks or finishes
	})
	return p
}

// worker is an iter.Pull coroutine that runs process bodies one after
// another. A finished process parks its worker on the engine's idle list
// instead of ending the coroutine, so most spawns create no goroutine.
// It also keeps the race detector's memory flat: the Go runtime does not
// release a coroutine's race state when the coroutine exits.
type worker struct {
	// next resumes the coroutine until its process blocks or finishes;
	// yield suspends it from inside; stop ends an idle worker.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	proc  *Proc
	fn    func(p *Proc)
}

// worker returns an idle worker, or a new one when none is idle.
func (e *Engine) worker() *worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return w
	}
	w := &worker{}
	w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			w.run()
			e.idle = append(e.idle, w)
			if !yield(struct{}{}) {
				return // stopped by Shutdown
			}
		}
	})
	return w
}

// run executes the assigned process body to completion. The kill signal
// unwinds it quietly; any other panic ends the worker and propagates to
// whoever resumed it.
func (w *worker) run() {
	p, fn := w.proc, w.fn
	w.proc, w.fn = nil, nil
	defer func() {
		r := recover()
		p.done = true
		p.eng.procs--
		delete(p.eng.live, p)
		if r != nil && r != errProcKilled {
			panic(r)
		}
	}()
	fn(p)
}

// Kind implements runtime.Runtime: this is the simulated backend.
func (e *Engine) Kind() runtime.Kind { return runtime.SimKind }

// Spawn implements runtime.Runtime in terms of Go. Protocol code spawns
// through this so it compiles against either backend; sim-specific
// tests and harnesses keep using Go directly.
func (e *Engine) Spawn(name string, fn func(t runtime.Task)) {
	e.Go(name, func(p *Proc) { fn(p) })
}

// Blocking implements runtime.Runtime. The simulator has no real I/O
// to overlap, so fn runs inline; it must not touch simulation state.
func (e *Engine) Blocking(fn func()) { fn() }

// NewSignal implements runtime.Runtime.
func (e *Engine) NewSignal() runtime.Signal { return NewSignal(e) }

// NewGroup implements runtime.Runtime.
func (e *Engine) NewGroup() runtime.Group { return NewGroup(e) }

// NewResource implements runtime.Runtime.
func (e *Engine) NewResource(name string, capacity int) runtime.Resource {
	return NewResource(e, name, capacity)
}

// NewPipe implements runtime.Runtime.
func (e *Engine) NewPipe(name string, rate float64) runtime.Pipe {
	return NewPipe(e, name, rate)
}

// Run drives the event loop until the queue is empty or the clock passes
// until (use a huge value to run to completion). It returns the final
// virtual time.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Engine.Run re-entered")
	}
	e.running = true
	e.until = until
	defer func() { e.running = false }()
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > until {
			// Leave it queued so a later Run can continue.
			break
		}
		ev := e.queue.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		ev.fn()
	}
	e.finalizeAccounting()
	return e.now
}

// finalizeAccounting folds the interval since each resource's last state
// change into its busy-time integral, so utilization accounting is
// complete through e.now whenever the event loop is not running.
func (e *Engine) finalizeAccounting() {
	for _, r := range e.resources {
		r.account()
	}
}

// RunAll drives the event loop until no events remain.
func (e *Engine) RunAll() Time { return e.Run(Time(1<<62 - 1)) }

// Stop halts the event loop after the current event completes. Blocked
// processes stay parked until Shutdown reaps them, so callers ending a
// simulation for good should follow Stop (or the final Run) with Shutdown
// to avoid leaking their goroutines.
func (e *Engine) Stop() { e.stopped = true }

// errProcKilled unwinds a process goroutine that Shutdown is reaping.
var errProcKilled = new(int)

// Shutdown stops the engine and reaps every live process so no goroutine
// outlives the simulation: blocked processes are resumed with a kill
// signal that unwinds their stacks, and spawned-but-never-started
// processes are discarded. It must be called from outside the event loop
// (never from a simulation process) and is the intended way to discard an
// engine — especially when many engines run back to back, where parked
// goroutines would otherwise accumulate. It returns the number of
// processes reaped; a well-formed, fully drained simulation returns 0.
func (e *Engine) Shutdown() int {
	if e.running {
		panic("sim: Engine.Shutdown called from inside Run")
	}
	e.stopped = true
	reaped := 0
	for len(e.live) > 0 {
		for p := range e.live {
			reaped++
			if p.w == nil {
				// It never started; just unregister.
				p.done = true
				e.procs--
				delete(e.live, p)
				continue
			}
			// The process is suspended in Proc.block. Resume it with
			// the kill flag set; block panics with errProcKilled, the
			// worker's deferred handler swallows it and the worker goes
			// idle. If a deferred function blocks again, the process
			// stays live and is killed again on the next pass.
			p.killed = true
			p.w.next()
			break // e.live changed; restart the iteration
		}
	}
	for _, w := range e.idle {
		w.stop()
	}
	e.idle = nil
	return reaped
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.queue) }

// LiveProcs reports the number of processes that have been spawned and not
// yet finished. After RunAll on a well-formed simulation this is the number
// of processes blocked forever (normally zero).
func (e *Engine) LiveProcs() int { return e.procs }

// LeakCheck returns nil when no processes are live, and otherwise an
// error naming the leaked processes. Call it after the simulation drains
// (and before Shutdown, which reaps the leaks it reports) to assert that
// no process was abandoned mid-blocking — the check harnesses and the
// bench worker pool use it so runs cannot mask leaks.
func (e *Engine) LeakCheck() error {
	if e.procs == 0 {
		return nil
	}
	names := make([]string, 0, len(e.live))
	for p := range e.live {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return fmt.Errorf("sim: %d leaked process(es): %s", e.procs, strings.Join(names, ", "))
}

// Proc is a simulation process: a body running on a worker coroutine
// that alternates control with the engine's event loop. All Proc methods
// must be called from the process itself.
type Proc struct {
	eng  *Engine
	name string
	w    *worker // nil until the process starts
	// wake resumes the process's worker, built once so scheduling a
	// wake-up never allocates.
	wake   func()
	done   bool
	killed bool
}

// Name returns the process name given to Engine.Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine that owns this process.
func (p *Proc) Engine() *Engine { return p.eng }

// Runtime implements runtime.Task.
func (p *Proc) Runtime() runtime.Runtime { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// block suspends the process until an event it scheduled (or handed to
// a Signal or Resource) calls p.wake.
func (p *Proc) block() {
	p.w.yield(struct{}{})
	if p.killed {
		panic(errProcKilled)
	}
}

// Sleep suspends the process for virtual duration d.
//
// When the wake time comes strictly before every queued event and within
// the current Run's bound, the loop would pop this process's wake next
// anyway, so Sleep advances the clock inline and returns without a
// switch. A tie goes through the queue, which keeps equal-time events in
// (at, seq) FIFO order.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		// A zero sleep still yields to events due at the same time.
		d = 0
	}
	e := p.eng
	at := e.now + Time(d)
	if e.running && !e.stopped && at <= e.until &&
		(len(e.queue) == 0 || at < e.queue[0].at) {
		e.now = at
		return
	}
	e.Schedule(d, p.wake)
	p.block()
}

// Yield gives other ready events a chance to run at the current time.
func (p *Proc) Yield() { p.Sleep(0) }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
