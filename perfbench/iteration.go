package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"cudele"
	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/namespace"
)

// iteration is one set-up plus timed phase of a workload, and what it
// measured.
type iteration struct {
	seed   int64
	ops    [][]op
	outdir string
	rec    *spanRec  // nil when untraced
	prof   *profiler // nil when untraced
	// setupOnly ends the iteration once set-up is timed: extra set-up
	// samples for the setup_s median.
	setupOnly bool

	setup       time.Duration // cluster, namespace and policies
	phase       time.Duration // the phase ops_per_s is measured over
	phaseOps    int           // ops counted by ops_per_s
	merge       time.Duration // the phase merge_events_per_s is measured over
	mergeEvents int           // journal events merged or persisted in it
	lat         latHist       // per-op host latency of the counted ops
	persist     []float64     // persist-mechanism host latency (ms)
	attempted   int
	failed      int
	errs        []string
	digest      string // simulated outcome; "" on the real backend

	counters counters

	// Traced iterations keep span summaries, and the last one keeps what
	// the per-layer timings run on.
	clientSelf, handler latHist
	events              []*journal.Event // the workload's own journal events
	store               *namespace.Store // the MDS store after the run
}

func newIteration(wl *workload, o options, ops [][]op, traced bool) *iteration {
	it := &iteration{seed: o.seed, ops: ops, outdir: o.outdir}
	if traced {
		it.rec = newSpanRec(wl.sim)
		it.prof = &profiler{}
	}
	return it
}

// instrument installs the MDS handler span recorder on a traced
// iteration's cluster.
func (it *iteration) instrument(cl *cudele.Cluster) {
	if it.rec != nil {
		cl.MDS().InjectFaults(it.rec.interceptor())
	}
}

// startPhase and stopPhase bracket what a traced iteration profiles.
func (it *iteration) startPhase() error {
	if it.prof == nil {
		return nil
	}
	return it.prof.start()
}

func (it *iteration) stopPhase() error {
	if it.prof == nil {
		return nil
	}
	return it.prof.stop()
}

// collect folds the clients' results into the iteration.
func (it *iteration) collect(crs ...*clientRun) {
	for _, cr := range crs {
		it.attempted += cr.attempted
		it.failed += cr.failed
		it.lat.merge(&cr.lat)
		it.phaseOps += int(cr.lat.n)
		if len(it.errs) < 3 {
			it.errs = append(it.errs, cr.errs...)
		}
	}
}

// clientRun is one closed-loop client: it issues its ops one after
// another and keeps its own counts, so tasks share nothing.
type clientRun struct {
	name string
	c    *cudele.Client
	rec  *spanRec

	attempted, failed int
	lat               latHist
	errs              []string

	creates int          // creates issued, which numbers the next name
	names   []string     // acknowledged creates
	inos    []cudele.Ino // their inode numbers
}

func newClientRun(cl *cudele.Cluster, it *iteration, name string) *clientRun {
	return &clientRun{name: name, c: cl.NewClient(name), rec: it.rec}
}

// do runs one op, timing it on the host clock, and returns its host
// latency. Counted ops feed the latency and ops_per_s metrics.
func (cr *clientRun) do(p cudele.Proc, k opKind, counted bool, fn func() error) time.Duration {
	id := int32(-1)
	if cr.rec != nil {
		id = cr.rec.beginOp(p, cr.name, k)
	}
	t := time.Now()
	err := fn()
	d := time.Since(t)
	if id >= 0 {
		cr.rec.endOp(p, id)
	}
	cr.attempted++
	if err != nil {
		cr.failed++
		if len(cr.errs) < 3 {
			cr.errs = append(cr.errs, fmt.Sprintf("%s %s: %v", cr.name, k, err))
		}
	}
	if counted {
		cr.lat.add(d)
	}
	return d
}

// ack records an acknowledged create.
func (cr *clientRun) ack(name string, ino cudele.Ino) {
	cr.names = append(cr.names, name)
	cr.inos = append(cr.inos, ino)
}

// nextName names the client's next create.
func (cr *clientRun) nextName(tag uint32) string {
	n := createName(cr.creates, tag)
	cr.creates++
	return n
}

// sameNames reports whether got (a readdir) holds exactly want.
func sameNames(got []string, want ...[]string) error {
	set := make(map[string]bool)
	n := 0
	for _, w := range want {
		for _, name := range w {
			set[name] = true
			n++
		}
	}
	if len(got) != n || len(set) != n {
		return fmt.Errorf("directory holds %d entries, %d acknowledged creates", len(got), n)
	}
	for _, g := range got {
		if !set[g] {
			return fmt.Errorf("directory holds %q, which no acknowledged create made", g)
		}
	}
	return nil
}

// counters are the per-layer counts read from existing accessors after
// an iteration.
type counters struct {
	rpcs, remoteLookups, redirects uint64
	mds                            mds.Metrics
	cpuBusy, cpuWait               float64 // simulated MDS CPU seconds
	radosWrites, radosBytes        uint64
}

func readCounters(cl *cudele.Cluster, crs ...*clientRun) counters {
	var c counters
	for _, cr := range crs {
		st := cr.c.Stats()
		c.rpcs += st.RPCs
		c.remoteLookups += st.RemoteLookups
		c.redirects += st.Redirects
	}
	c.mds = cl.MDS().Metrics()
	snap := cl.MDS().CPU().Snapshot()
	c.cpuBusy, c.cpuWait = snap.BusyArea, snap.WaitTotal.Seconds()
	rs := cl.Objects().Stats()
	c.radosWrites, c.radosBytes = rs.Writes, rs.BytesWritten
	return c
}

// simDigest summarises a simulated outcome: the virtual end time, every
// client's and the MDS's counters, and a hash of the namespace listing.
func simDigest(cl *cudele.Cluster, crs ...*clientRun) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "t=%d\n", int64(cl.Now()*1e9))
	for _, cr := range crs {
		fmt.Fprintf(h, "%s %+v\n", cr.name, cr.c.Stats())
	}
	fmt.Fprintf(h, "mds %+v\n", cl.MDS().Metrics())
	err := cl.MDS().Store().Walk(cudele.RootIno, func(p string, in *namespace.Inode) error {
		fmt.Fprintf(h, "%s %d %d\n", p, in.Ino, in.Type)
		return nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// profiler records a CPU profile and allocation counts around a traced
// iteration's phases, folding each profile into per-layer CPU time.
type profiler struct {
	buf      bytes.Buffer
	last     []byte // the most recent raw profile, written out at the end
	cpu      map[string]int64
	ms0      runtime.MemStats
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
}

func (pr *profiler) start() error {
	runtime.ReadMemStats(&pr.ms0)
	pr.buf.Reset()
	return pprof.StartCPUProfile(&pr.buf)
}

func (pr *profiler) stop() error {
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pr.mallocs += ms.Mallocs - pr.ms0.Mallocs
	pr.bytes += ms.TotalAlloc - pr.ms0.TotalAlloc
	pr.gcCycles += ms.NumGC - pr.ms0.NumGC
	pr.last = append(pr.last[:0], pr.buf.Bytes()...)
	fold, err := foldProfile(pr.last)
	if err != nil {
		return err
	}
	if pr.cpu == nil {
		pr.cpu = make(map[string]int64)
	}
	for l, ns := range fold {
		pr.cpu[l] += ns
	}
	return nil
}
