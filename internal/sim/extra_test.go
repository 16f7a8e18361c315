package sim

import (
	"cudele/internal/runtime"

	"strings"
	"testing"
	"time"
)

func TestStopHaltsLoop(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Millisecond, func() {
		ran++
		e.Stop()
	})
	e.Schedule(2*time.Millisecond, func() { ran++ })
	e.RunAll()
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
}

func TestNegativeScheduleClamped(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(5*time.Millisecond, func() {
		e.Schedule(-time.Hour, func() { at = e.Now() })
	})
	e.RunAll()
	if at != Time(5*time.Millisecond) {
		t.Fatalf("negative-delay event at %v", at)
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine(1)
	e.Go("worker", func(p *Proc) {
		if p.Name() != "worker" {
			t.Errorf("name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("engine accessor broken")
		}
		if !strings.Contains(p.String(), "worker") {
			t.Errorf("string = %q", p.String())
		}
		p.Yield()
	})
	e.RunAll()
}

func TestResourceAccessors(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 2)
	if r.Name() != "disk" || r.Capacity() != 2 {
		t.Fatalf("accessors: %q %d", r.Name(), r.Capacity())
	}
	e.Go("a", func(p *Proc) {
		r.Acquire(p)
		if r.InUse() != 1 {
			t.Errorf("in use = %d", r.InUse())
		}
		p.Sleep(time.Millisecond)
		r.Release()
	})
	e.RunAll()
	if r.Acquires() != 1 {
		t.Fatalf("acquires = %d", r.Acquires())
	}
	if r.MeanWait() != 0 {
		t.Fatalf("mean wait = %v for uncontended use", r.MeanWait())
	}
}

func TestResourceQueueLenAndMeanWait(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	e.Go("holder", func(p *Proc) { r.Use(p, 10*time.Millisecond) })
	e.Go("waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p)
		r.Release()
	})
	probed := false
	e.Schedule(5*time.Millisecond, func() {
		if r.QueueLen() != 1 {
			t.Errorf("queue len = %d, want 1", r.QueueLen())
		}
		probed = true
	})
	e.RunAll()
	if !probed {
		t.Fatal("probe never ran")
	}
	// The waiter queued from 1 ms to 10 ms; MeanWait divides that by both
	// acquires, the holder's unqueued one included.
	if r.MeanWait() != 4500*time.Microsecond {
		t.Fatalf("mean wait = %v, want 4.5ms", r.MeanWait())
	}
}

func TestNewResourceBadCapacityPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewResource(e, "x", 0)
}

func TestNewPipeBadRatePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("rate 0 did not panic")
		}
	}()
	NewPipe(e, "x", 0)
}

func TestPipeAccessorsAndNegativeTransfer(t *testing.T) {
	e := NewEngine(1)
	pp := NewPipe(e, "nic", 1e6)
	if pp.Rate() != 1e6 {
		t.Fatalf("rate = %v", pp.Rate())
	}
	mark := pp.UtilizationMark()
	e.Go("w", func(p *Proc) {
		pp.Transfer(p, 1e6)
		if u := pp.UtilizationSince(mark); u < 0.99 {
			t.Errorf("windowed pipe utilization = %v", u)
		}
	})
	e.RunAll()
	if pp.Utilization() < 0.99 {
		t.Fatalf("pipe utilization = %v", pp.Utilization())
	}
	e.Go("neg", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative transfer did not panic")
			}
		}()
		pp.Transfer(p, -1)
	})
	e.RunAll()
}

func TestGroupNegativeCounterPanics(t *testing.T) {
	e := NewEngine(1)
	g := NewGroup(e)
	defer func() {
		if recover() == nil {
			t.Fatal("negative group counter did not panic")
		}
	}()
	g.Add(-1)
}

func TestGroupWaitAfterDone(t *testing.T) {
	e := NewEngine(1)
	g := NewGroup(e)
	g.Go("w", func(p runtime.Task) { p.Sleep(time.Millisecond) })
	waited := 0
	e.Go("late", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		g.Wait(p) // already done: returns immediately
		waited++
	})
	e.Go("never-registered", func(p *Proc) {
		fresh := NewGroup(e)
		fresh.Wait(p) // empty group: returns immediately
		waited++
	})
	e.RunAll()
	if waited != 2 {
		t.Fatalf("waited = %d", waited)
	}
}

func TestRunReentrancePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("re-entrant Run did not panic")
		}
	}()
	e.Schedule(0, func() { e.Run(0) })
	e.RunAll()
}
