package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"cudele"
	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/sim"
)

// layerMetrics computes the traced run's per-layer metrics: host CPU per
// layer from the folded profiles, timed calls into each layer's public
// functions, counts from existing accessors, and the tracing overhead.
func layerMetrics(o options, plain, traced []*iteration) (map[string]metric, error) {
	m := map[string]metric{}
	var ops, plainOps []float64
	var attempted int
	var c counters
	cpu := map[string]int64{}
	var mallocs, allocBytes uint64
	var gcCycles uint32
	var clientSelf, handler latHist
	var persist []float64
	for _, it := range traced {
		ops = append(ops, float64(it.phaseOps)/it.phase.Seconds())
		attempted += it.attempted
		for l, ns := range it.prof.cpu {
			cpu[l] += ns
		}
		mallocs += it.prof.mallocs
		allocBytes += it.prof.bytes
		gcCycles += it.prof.gcCycles
		clientSelf.merge(&it.clientSelf)
		handler.merge(&it.handler)
		persist = append(persist, it.persist...)
		c.add(it.counters)
	}
	for _, it := range plain {
		plainOps = append(plainOps, float64(it.phaseOps)/it.phase.Seconds())
	}
	last := traced[len(traced)-1]
	kops := float64(attempted) / 1000
	perOp := func(n uint64) float64 { return float64(n) / float64(attempted) }

	var total int64
	for _, ns := range cpu {
		total += ns
	}
	for _, l := range layers {
		m[l+".cpu_ms_per_kop"] = metric{float64(cpu[l]) / 1e6 / kops, "ms/kop"}
	}
	if total > 0 {
		fmt.Printf("profile fold: %.1f%% of %d ms CPU in named layers, %.1f%% in other\n",
			100*float64(total-cpu["other"])/float64(total), total/1e6, 100*float64(cpu["other"])/float64(total))
	}

	m["sim.handoff_ns"] = metric{simHandoffNs(), "ns"}
	enc, dec, err := codecNsPerEvent(last.events)
	if err != nil {
		return nil, err
	}
	m["journal.encode_ns_per_event"] = metric{enc, "ns"}
	m["journal.decode_ns_per_event"] = metric{dec, "ns"}
	replay, err := replayNsPerEvent(last.events)
	if err != nil {
		return nil, err
	}
	m["namespace.replay_ns_per_event"] = metric{replay, "ns"}
	rd, entries, err := readdirUs(last.store)
	if err != nil {
		return nil, err
	}
	m["namespace.readdir_us"] = metric{rd, "us"}
	fmt.Printf("timed calls: %d journal events, readdir of a %d-entry directory\n", len(last.events), entries)

	fmt.Printf("spans: %d client-op self times, %d MDS handler spans, %d persists\n",
		clientSelf.n, handler.n, len(persist))
	m["mds.handler_p50_ms"] = metric{handler.quantileMs(0.5), "ms"}
	m["client.self_p50_ms"] = metric{clientSelf.quantileMs(0.5), "ms"}
	m["client.persist_p50_ms"] = metric{quantileOr0(persist, 0.5), "ms"}

	m["client.rpcs_per_op"] = metric{perOp(c.rpcs), "1/op"}
	m["client.remote_lookups"] = metric{perOp(c.remoteLookups), "1/op"}
	m["client.redirects"] = metric{perOp(c.redirects), "1/op"}
	m["mds.requests"] = metric{perOp(c.mds.Requests), "1/op"}
	m["mds.cap_revokes"] = metric{perOp(c.mds.CapRevokes), "1/op"}
	m["mds.journaled"] = metric{perOp(c.mds.Journaled), "1/op"}
	m["mds.dispatches"] = metric{perOp(c.mds.Dispatches), "1/op"}
	m["mds.merged"] = metric{perOp(c.mds.Merged), "1/op"}
	m["mds.merge_conflicts"] = metric{perOp(c.mds.MergeConflicts), "1/op"}
	m["mds.merge_backpressure"] = metric{perOp(c.mds.MergeBackpressure), "1/op"}
	m["mds.cpu_busy_s"] = metric{c.cpuBusy / float64(len(traced)), "s"}
	m["mds.cpu_wait_s"] = metric{c.cpuWait / float64(len(traced)), "s"}
	m["rados.writes"] = metric{perOp(c.radosWrites), "1/op"}
	m["rados.bytes_written"] = metric{perOp(c.radosBytes), "B/op"}
	m["goruntime.allocs_per_op"] = metric{perOp(mallocs), "1/op"}
	m["goruntime.alloc_bytes_per_op"] = metric{perOp(allocBytes), "B/op"}
	m["goruntime.gc_cycles"] = metric{float64(gcCycles) / float64(len(traced)), "count"}
	m["trace.overhead"] = metric{median(plainOps) / median(ops), "x"}

	if err := last.rec.write(outPath(o, ".spans.tsv")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(outPath(o, ".cpu.pprof"), last.prof.last, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s and %s\n", outPath(o, ".spans.tsv"), outPath(o, ".cpu.pprof"))
	return m, nil
}

func (c *counters) add(o counters) {
	c.rpcs += o.rpcs
	c.remoteLookups += o.remoteLookups
	c.redirects += o.redirects
	c.mds.Requests += o.mds.Requests
	c.mds.CapRevokes += o.mds.CapRevokes
	c.mds.Journaled += o.mds.Journaled
	c.mds.Dispatches += o.mds.Dispatches
	c.mds.Merged += o.mds.Merged
	c.mds.MergeConflicts += o.mds.MergeConflicts
	c.mds.MergeBackpressure += o.mds.MergeBackpressure
	c.cpuBusy += o.cpuBusy
	c.cpuWait += o.cpuWait
	c.radosWrites += o.radosWrites
	c.radosBytes += o.radosBytes
}

// quantileOr0 is quantile, reading 0 when the workload issued no such
// call (a per-layer metric of a layer the workload does not reach).
func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// timedLoop runs fn until at least minDur has passed and returns the
// mean time per call.
func timedLoop(minDur time.Duration, fn func()) time.Duration {
	n := 0
	start := time.Now()
	for time.Since(start) < minDur {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// simHandoffNs times the simulator's context switch: two processes on a
// fresh engine alternating one-nanosecond sleeps.
func simHandoffNs() float64 {
	const sleeps = 100_000
	e := sim.NewEngine(1)
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(1)
			}
		})
	}
	start := time.Now()
	e.RunAll()
	d := time.Since(start)
	e.Shutdown()
	return float64(d) / (2 * sleeps)
}

// codecNsPerEvent times journal.Encode and journal.Decode over events.
func codecNsPerEvent(evs []*journal.Event) (enc, dec float64, err error) {
	if len(evs) == 0 {
		return 0, 0, fmt.Errorf("no journal events to time the codec on")
	}
	data, err := journal.Encode(evs)
	if err != nil {
		return 0, 0, err
	}
	n := float64(len(evs))
	encD := timedLoop(200*time.Millisecond, func() { _, err = journal.Encode(evs) })
	if err != nil {
		return 0, 0, err
	}
	decD := timedLoop(200*time.Millisecond, func() { _, err = journal.Decode(data) })
	return float64(encD) / n, float64(decD) / n, err
}

// replayNsPerEvent times journal.Replay into a fresh namespace.Store.
// Each store first gets the directories the events' parents name, so the
// replay itself is all that is timed.
func replayNsPerEvent(evs []*journal.Event) (float64, error) {
	made := map[uint64]bool{}
	for _, ev := range evs {
		if ev.Type == journal.EvMkdir {
			made[ev.Ino] = true
		}
	}
	var parents []uint64
	seen := map[uint64]bool{}
	for _, ev := range evs {
		if p := ev.Parent; p != 0 && p != uint64(namespace.RootIno) && !made[p] && !seen[p] {
			seen[p] = true
			parents = append(parents, p)
		}
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	var total time.Duration
	reps := 0
	for total < 200*time.Millisecond || reps < 2 {
		s := namespace.NewStore()
		for _, p := range parents {
			if _, err := s.Mkdir(namespace.RootIno, fmt.Sprintf("p%d", p),
				namespace.CreateAttrs{Ino: namespace.Ino(p), Mode: 0o755}); err != nil {
				return 0, fmt.Errorf("replay setup: %w", err)
			}
		}
		start := time.Now()
		if _, err := journal.Replay(evs, s); err != nil {
			return 0, err
		}
		total += time.Since(start)
		reps++
	}
	return float64(total) / float64(reps) / float64(len(evs)), nil
}

// readdirUs times Store.ReadDir on the store's largest directory.
func readdirUs(s *namespace.Store) (us float64, entries int, err error) {
	var big cudele.Ino
	for _, d := range s.Dirs() {
		names, err := s.ReadDir(d)
		if err != nil {
			return 0, 0, err
		}
		if len(names) > entries {
			big, entries = d, len(names)
		}
	}
	d := timedLoop(100*time.Millisecond, func() { _, err = s.ReadDir(big) })
	return float64(d) / 1e3, entries, err
}
