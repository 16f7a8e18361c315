package sim

import (
	"fmt"
	"hash/fnv"
	goruntime "runtime"
	"testing"
	"time"

	"cudele/internal/runtime"
)

// goldenScheduleHash is the schedule-order hash of runGoldenMix. It was
// computed with the channel-handshake kernel, before processes became
// coroutines and Sleep gained its no-switch fast path, so it pins that
// neither change reorders a single step.
const goldenScheduleHash = 0x7403b14634645e32

// runGoldenMix runs about fifty processes through a seeded mix of Sleep,
// Yield, Resource, Signal and Group operations — wake times are drawn
// from a few milliseconds so ties are common — and returns an FNV-64a
// hash of every step in execution order with its virtual time. The loop
// advances in Run(until) slices so the bound of each Run is exercised.
func runGoldenMix(t *testing.T) uint64 {
	t.Helper()
	e := NewEngine(7)
	h := fnv.New64a()
	step := func(p *Proc, what string, n int) {
		fmt.Fprintf(h, "%s %s %d @%d\n", p.Name(), what, n, int64(p.Now()))
	}
	sleepFor := func(p *Proc) Duration {
		return Duration(p.Engine().Rand().Intn(4)) * time.Millisecond
	}
	cpu := NewResource(e, "cpu", 1)
	pool := NewResource(e, "pool", 3)
	link := NewPipe(e, "link", 1e6)
	sigs := make([]*Signal, 10)
	for i := range sigs {
		sigs[i] = NewSignal(e)
	}
	// Procs 0-9 fire one signal each partway through and never wait on
	// a signal themselves, so every waiter is eventually released.
	for i := 0; i < 10; i++ {
		i := i
		e.Go(fmt.Sprintf("firer%d", i), func(p *Proc) {
			for n := 0; n < 8; n++ {
				if n == 5 {
					sigs[i].Fire(i)
					step(p, "fire", i)
				}
				switch p.Engine().Rand().Intn(3) {
				case 0:
					p.Sleep(sleepFor(p))
				case 1:
					cpu.Use(p, sleepFor(p))
				default:
					p.Yield()
				}
				step(p, "firer", n)
			}
		})
	}
	for i := 10; i < 40; i++ {
		e.Go(fmt.Sprintf("worker%d", i), func(p *Proc) {
			for n := 0; n < 12; n++ {
				switch p.Engine().Rand().Intn(7) {
				case 0:
					p.Sleep(sleepFor(p))
				case 1:
					p.Yield()
				case 2:
					cpu.Use(p, sleepFor(p))
				case 3:
					pool.Use(p, sleepFor(p))
				case 4:
					link.Transfer(p, int64(p.Engine().Rand().Intn(4000)))
				case 5:
					v := sigs[p.Engine().Rand().Intn(len(sigs))].Wait(p)
					step(p, "signal", v.(int))
				default:
					// A plain event racing the processes' wake-ups.
					n := n
					e.Schedule(sleepFor(p), func() {
						fmt.Fprintf(h, "event %s %d @%d\n", p.Name(), n, int64(e.Now()))
					})
				}
				step(p, "worker", n)
			}
		})
	}
	g := NewGroup(e)
	for i := 40; i < 49; i++ {
		g.Go(fmt.Sprintf("member%d", i), func(tk runtime.Task) {
			p := tk.(*Proc)
			for n := 0; n < 6; n++ {
				if p.Engine().Rand().Intn(2) == 0 {
					pool.Use(p, sleepFor(p))
				} else {
					p.Sleep(sleepFor(p))
				}
				step(p, "member", n)
			}
			if p.Engine().Rand().Intn(3) == 0 {
				// A late child, spawned from inside a running process.
				e.Go(p.Name()+"-child", func(c *Proc) {
					c.Sleep(sleepFor(c))
					step(c, "child", 0)
				})
			}
		})
	}
	e.Go("joiner", func(p *Proc) {
		g.Wait(p)
		step(p, "joined", 0)
	})
	for until := Time(0); e.Pending() > 0; until += Time(3 * time.Millisecond) {
		fmt.Fprintf(h, "run %d -> %d\n", int64(until), int64(e.Run(until)))
	}
	if err := e.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestGoldenScheduleOrder pins the kernel's schedule order bit for bit.
func TestGoldenScheduleOrder(t *testing.T) {
	got := runGoldenMix(t)
	if got != goldenScheduleHash {
		t.Fatalf("schedule-order hash = %#x, want %#x", got, uint64(goldenScheduleHash))
	}
	if again := runGoldenMix(t); again != got {
		t.Fatalf("schedule-order hash not reproducible: %#x then %#x", got, again)
	}
}

// TestSleepFastPathHonoursRunBound: a lone process sleeping past the
// bound of Run stays queued instead of advancing the clock inline, and a
// later Run wakes it at the right time.
func TestSleepFastPathHonoursRunBound(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	e.Go("lone", func(p *Proc) {
		p.Sleep(time.Millisecond) // within the bound: inline
		p.Sleep(time.Hour)        // past it: queued
		woke = p.Now()
	})
	if end := e.Run(Time(time.Second)); end != Time(time.Millisecond) {
		t.Fatalf("Run(1s) ended at %v, want 1ms", end)
	}
	if e.Pending() != 1 || e.LiveProcs() != 1 || woke != 0 {
		t.Fatalf("after Run(1s): pending=%d live=%d woke=%v, want 1/1/0",
			e.Pending(), e.LiveProcs(), woke)
	}
	e.RunAll()
	if want := Time(time.Hour + time.Millisecond); woke != want {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", e.LiveProcs())
	}
}

// TestSleepFastPathHonoursStop: once the engine is stopped, a Sleep must
// not advance the clock inline; the process parks for Shutdown.
func TestSleepFastPathHonoursStop(t *testing.T) {
	e := NewEngine(1)
	after := false
	e.Go("stopper", func(p *Proc) {
		e.Stop()
		p.Sleep(time.Millisecond)
		after = true
	})
	if end := e.RunAll(); end != 0 {
		t.Fatalf("clock advanced to %v after Stop", end)
	}
	if after || e.Pending() != 1 || e.LiveProcs() != 1 {
		t.Fatalf("after Stop: ran on=%v pending=%d live=%d, want false/1/1",
			after, e.Pending(), e.LiveProcs())
	}
	if got := e.Shutdown(); got != 1 {
		t.Fatalf("Shutdown reaped %d, want 1", got)
	}
}

// TestSleepTieRunsAfterQueuedEvent: a Sleep whose wake time equals an
// already-queued event's time goes through the queue and runs after it.
func TestSleepTieRunsAfterQueuedEvent(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(time.Millisecond, func() { order = append(order, "before-spawn") })
	e.Go("sleeper", func(p *Proc) {
		e.Schedule(2*time.Millisecond, func() { order = append(order, "from-proc") })
		p.Sleep(time.Millisecond)
		order = append(order, "proc@1ms")
		p.Sleep(time.Millisecond)
		order = append(order, "proc@2ms")
	})
	e.RunAll()
	want := []string{"before-spawn", "proc@1ms", "from-proc", "proc@2ms"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestProcPanicSurfacesFromRun: a panic inside a process (other than the
// kill signal) propagates out of Engine.Run with its original value and
// leaves the engine not running.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine(1)
	boom := fmt.Errorf("boom")
	e.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	e.Go("panicker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic(boom)
	})
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Run panicked with %v, want %v", r, boom)
			}
		}()
		e.RunAll()
		t.Fatal("Run returned without panicking")
	}()
	if e.running {
		t.Fatal("engine still marked running after the panic")
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("live procs = %d, want only the bystander", e.LiveProcs())
	}
	if got := e.Shutdown(); got != 1 {
		t.Fatalf("Shutdown reaped %d, want 1", got)
	}
}

// TestContendedSleepAllocs: a Sleep that goes through the queue (the
// other process wakes at the same time) schedules the process's cached
// wake func, so a steady-state sleep cycle does not allocate.
func TestContendedSleepAllocs(t *testing.T) {
	e := NewEngine(1)
	stop := false
	for i := 0; i < 2; i++ {
		e.Go("sleeper", func(p *Proc) {
			for !stop {
				p.Sleep(time.Microsecond)
			}
		})
	}
	until := Time(64 * time.Microsecond)
	e.Run(until) // warm up the queue's backing array
	avg := testing.AllocsPerRun(100, func() {
		until += Time(64 * time.Microsecond)
		e.Run(until)
	})
	if avg != 0 {
		t.Fatalf("64 contended Sleep cycles allocate %.1f times, want 0", avg)
	}
	stop = true
	e.RunAll()
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", e.LiveProcs())
	}
}

// TestSignalWakeAllocs: firing a signal schedules each waiter's cached
// wake func, so a Fire/Wait wake cycle does not allocate once the
// waiter lists exist.
func TestSignalWakeAllocs(t *testing.T) {
	const runs = 100
	e := NewEngine(1)
	sigs := make([]*Signal, runs+2) // AllocsPerRun runs once more to warm up
	for i := range sigs {
		sigs[i] = NewSignal(e)
		sigs[i].waiters = make([]*Proc, 0, 2)
	}
	for i := 0; i < 2; i++ {
		e.Go("waiter", func(p *Proc) {
			for _, s := range sigs {
				s.Wait(p)
			}
		})
	}
	e.RunAll()
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		sigs[next].Fire(nil)
		next++
		e.RunAll()
	})
	if avg != 0 {
		t.Fatalf("a Fire/Wait cycle with two waiters allocates %.1f times, want 0", avg)
	}
	for ; next < len(sigs); next++ {
		sigs[next].Fire(nil)
	}
	e.RunAll()
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", e.LiveProcs())
	}
}

// TestWorkersReusedAndReaped: a finished process's coroutine runs the
// next process instead of a new one being created, and Shutdown ends
// the idle coroutines so no goroutine outlives the engine.
func TestWorkersReusedAndReaped(t *testing.T) {
	before := goruntime.NumGoroutine()
	e := NewEngine(1)
	ran := 0
	var chain func(p *Proc)
	chain = func(p *Proc) {
		p.Sleep(time.Millisecond)
		if ran++; ran < 100 {
			e.Go("link", chain) // starts after this process finishes
		}
	}
	e.Go("link", chain)
	e.RunAll()
	if ran != 100 || e.LiveProcs() != 0 {
		t.Fatalf("ran %d links with %d live, want 100 and 0", ran, e.LiveProcs())
	}
	if len(e.idle) != 1 {
		t.Fatalf("%d idle workers after a strictly sequential chain, want 1", len(e.idle))
	}
	e.Shutdown()
	if after := goruntime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before the engine, %d after Shutdown", before, after)
	}
}

// TestResourceContendedAllocs: with three processes taking turns on a
// capacity-1 resource, two always wait, and a steady-state
// Acquire/Release cycle reuses the FIFO's backing array and keeps the
// wait start on the stack, so it does not allocate.
func TestResourceContendedAllocs(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	stop := false
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			for !stop {
				r.Use(p, time.Microsecond)
			}
		})
	}
	until := Time(64 * time.Microsecond)
	e.Run(until) // warm up the queues' backing arrays
	if r.QueueLen() != 2 {
		t.Fatalf("queue len = %d, want 2 (contended)", r.QueueLen())
	}
	avg := testing.AllocsPerRun(100, func() {
		until += Time(64 * time.Microsecond)
		e.Run(until)
	})
	if avg != 0 {
		t.Fatalf("64 contended Acquire/Release cycles allocate %.1f times, want 0", avg)
	}
	stop = true
	e.RunAll()
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", e.LiveProcs())
	}
}
