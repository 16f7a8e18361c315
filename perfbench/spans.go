package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"cudele"
	"cudele/internal/mds"
	"cudele/internal/transport"
)

// span is one timed interval of the traced run: a client operation, or
// an MDS handler invocation nested under the client op that caused it.
// Host times are wall nanoseconds since the recorder started; virtual
// times are the simulator's clock (-1 on the real backend).
type span struct {
	parent int32 // index of the enclosing client-op span, -1 for roots
	name   string
	actor  string
	h0, h1 int64
	v0, v1 int64
	child  int64 // host ns covered by child spans
	mds    bool  // an MDS handler span
}

// spanRec keeps the traced run's spans in memory. The benchmark records
// them from outside the program: around each client call it makes, and
// in an interceptor installed on the MDS endpoint with
// mds.Server.InjectFaults. The real backend runs handlers on their own
// goroutines, so every method locks.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	virt  bool
	spans []span
	// open maps a task, and a client name, to its in-flight op span:
	// Post and the simulator's Call run the handler on the caller's task;
	// the real backend's Call runs it on a fresh task, found by the
	// request's client name.
	openTask   map[cudele.Proc]int32
	openClient map[string]int32
	// inHandler counts open handler spans per task, so a handler nested
	// in another (a merge that posts onward) is not counted twice.
	inHandler map[cudele.Proc]int
}

func newSpanRec(virt bool) *spanRec {
	return &spanRec{t0: time.Now(), virt: virt,
		openTask: make(map[cudele.Proc]int32), openClient: make(map[string]int32),
		inHandler: make(map[cudele.Proc]int)}
}

func (r *spanRec) virtNow(p cudele.Proc) int64 {
	if !r.virt {
		return -1
	}
	return int64(p.Now())
}

// beginOp opens a client-op span on task p.
func (r *spanRec) beginOp(p cudele.Proc, client string, k opKind) int32 {
	v := r.virtNow(p)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{parent: -1, name: k.String(), actor: client,
		h0: int64(time.Since(r.t0)), v0: v})
	r.openTask[p] = id
	r.openClient[client] = id
	return id
}

// endOp closes a client-op span.
func (r *spanRec) endOp(p cudele.Proc, id int32) {
	v := r.virtNow(p)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.h1, s.v1 = int64(time.Since(r.t0)), v
	delete(r.openTask, p)
	delete(r.openClient, s.actor)
}

// interceptor returns the MDS-handler span recorder. It only reads the
// clocks, so a traced simulation stays identical to an untraced one.
func (r *spanRec) interceptor() transport.Interceptor {
	return func(next transport.Handler) transport.Handler {
		return func(p cudele.Proc, msg any) any {
			name, client := fmt.Sprintf("mds.%T", msg), ""
			if m, ok := msg.(*mds.Request); ok {
				name, client = "mds."+m.Op.String(), m.Client
			}
			v := r.virtNow(p)
			r.mu.Lock()
			parent, ok := r.openTask[p]
			if !ok {
				if parent, ok = r.openClient[client]; !ok {
					parent = -1
				}
			}
			nested := r.inHandler[p] > 0
			r.inHandler[p]++
			id := int32(len(r.spans))
			r.spans = append(r.spans, span{parent: parent, name: name, actor: mdsActor,
				h0: int64(time.Since(r.t0)), v0: v, mds: true})
			r.mu.Unlock()

			reply := next(p, msg)

			v = r.virtNow(p)
			r.mu.Lock()
			s := &r.spans[id]
			s.h1, s.v1 = int64(time.Since(r.t0)), v
			if parent >= 0 && !nested {
				r.spans[parent].child += s.h1 - s.h0
			}
			if r.inHandler[p]--; r.inHandler[p] == 0 {
				delete(r.inHandler, p)
			}
			r.mu.Unlock()
			return reply
		}
	}
}

// selfTimes returns the client-op spans' self times (duration minus the
// part their MDS child spans cover) and the MDS handler spans' durations.
func (r *spanRec) selfTimes() (clientSelf, handler latHist) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.h1 == 0 {
			continue // still open: the run ended inside it
		}
		if s.mds {
			handler.add(time.Duration(s.h1 - s.h0))
		} else {
			clientSelf.add(time.Duration(s.h1 - s.h0 - s.child))
		}
	}
	return clientSelf, handler
}

// mdsActor names the MDS in span records.
const mdsActor = "mds.0"

// write saves the spans as tab-separated lines: id, parent, actor, name,
// host start/end ns, virtual start/end ns, self ns.
func (r *spanRec) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tactor\tname\thost_start_ns\thost_end_ns\tvirt_start_ns\tvirt_end_ns\tself_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n", i, s.parent, s.actor, s.name,
			s.h0, s.h1, s.v0, s.v1, s.h1-s.h0-s.child)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
