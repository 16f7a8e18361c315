package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cudele"
	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/policy"
	"cudele/internal/rados"
)

// workload is one traffic shape the benchmark runs.
type workload struct {
	name string
	sim  bool // runs on the deterministic simulator
	gen  func(seed int64) [][]op
	run  func(it *iteration) error
}

var workloads = []*workload{
	{name: "rpc-storm", sim: true, run: runRPCStorm, gen: func(seed int64) [][]op {
		return genRPCStorm(seed, stormClients, stormPerClient, stormReaddirEvery)
	}},
	{name: "decoupled-merge", sim: true, run: runDecoupledMerge, gen: func(seed int64) [][]op {
		return genLocalCreates(seed, len(mergeCells), mergePerClient)
	}},
	{name: "real-mixed", run: runRealMixed, gen: func(seed int64) [][]op {
		return genRealMixed(seed, realClients, realPerClient, realCheckpointEvery)
	}},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// rpc-storm: the paper's RPC create path (Fig 3b/3c). Four clients in
// private directories with MDS journal streaming on (dispatch 40); an
// interferer creates into every directory after 15% of the run, which
// revokes the clients' capabilities so later creates need lookup RPCs.
// The readdir share stays small: the MDS sorts every name on each
// readdir, which would otherwise dominate (see README.md).
const (
	stormClients         = 4
	stormPerClient       = 10_000
	stormReaddirEvery    = 1000
	stormInterferePerDir = 25
)

func runRPCStorm(it *iteration) error {
	t0 := time.Now()
	cfg := cudele.DefaultConfig()
	cfg.DispatchSize = 40
	cl := cudele.NewCluster(cudele.WithSeed(it.seed), cudele.WithConfig(cfg))
	defer cl.Close()
	cl.MDS().SetStream(true)
	crs := make([]*clientRun, stormClients)
	for i := range crs {
		crs[i] = newClientRun(cl, it, fmt.Sprintf("client.%d", i))
	}
	intr := newClientRun(cl, it, "interferer")
	dirs := make([]cudele.Ino, stormClients)
	var err error
	cl.Run(func(p cudele.Proc) {
		for i, cr := range crs {
			if dirs[i], err = cr.c.Mkdir(p, cudele.RootIno, fmt.Sprintf("dir%d", i), 0o755); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	it.setup = time.Since(t0)
	if it.setupOnly {
		return nil
	}
	it.instrument(cl)

	interfere := cl.Runtime().NewSignal()
	trigger := len(it.ops[0]) * 15 / 100
	for i, cr := range crs {
		i, cr := i, cr
		cl.Go(cr.name, func(p cudele.Proc) {
			for j, o := range it.ops[i] {
				if i == 0 && j == trigger {
					interfere.Fire(nil)
				}
				stormOp(p, cr, dirs[i], o)
			}
		})
	}
	intrNames := make([][]string, stormClients)
	cl.Go(intr.name, func(p cudele.Proc) {
		interfere.Wait(p)
		for round := 0; round < stormInterferePerDir; round++ {
			for d, dir := range dirs {
				name := fmt.Sprintf("intruder-%d-%04d", d, round)
				intr.do(p, opCreate, true, func() error {
					_, err := intr.c.Create(p, dir, name, 0o644)
					if err == nil {
						intrNames[d] = append(intrNames[d], name)
					}
					return err
				})
			}
		}
	})
	journaled := cl.MDS().Metrics().Journaled
	if err := it.startPhase(); err != nil {
		return err
	}
	start := time.Now()
	cl.RunAll()
	it.phase = time.Since(start)
	if err := it.stopPhase(); err != nil {
		return err
	}
	// The stream journals every create: those are the events made
	// durable during the storm.
	it.merge = it.phase
	it.mergeEvents = int(cl.MDS().Metrics().Journaled - journaled)
	it.collect(append(crs, intr)...)

	var errs []error
	for i, cr := range crs {
		got, err := cl.MDS().Store().ReadDir(dirs[i])
		if err == nil {
			err = sameNames(got, cr.names, intrNames[i])
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("dir%d: %w", i, err))
		}
	}
	if it.digest, err = simDigest(cl, append(crs, intr)...); err != nil {
		return err
	}
	it.counters = readCounters(cl, append(crs, intr)...)
	if it.rec != nil {
		it.store = cl.MDS().Store()
		cl.Run(func(p cudele.Proc) { it.events, err = readMDSJournal(p, cl) })
		if err == nil && len(it.events) == 0 {
			err = errors.New("the MDS streamed no journal segments")
		}
		errs = append(errs, err)
	}
	if n := cl.Close(); n != 0 {
		errs = append(errs, fmt.Errorf("close reaped %d tasks", n))
	}
	return errors.Join(errs...)
}

// stormOp issues one rpc-storm op against the client's own directory.
func stormOp(p cudele.Proc, cr *clientRun, dir cudele.Ino, o op) {
	switch o.kind {
	case opCreate:
		name := cr.nextName(o.arg)
		cr.do(p, opCreate, true, func() error {
			ino, err := cr.c.Create(p, dir, name, 0o644)
			if err == nil {
				cr.ack(name, ino)
			}
			return err
		})
	case opLookup:
		cr.do(p, opLookup, true, func() error {
			if int(o.arg) >= len(cr.names) {
				return fmt.Errorf("lookup of create %d, only %d acknowledged", o.arg, len(cr.names))
			}
			ino, err := cr.c.Lookup(p, dir, cr.names[o.arg])
			if err == nil && ino != cr.inos[o.arg] {
				err = fmt.Errorf("lookup %s: ino %d, created as %d", cr.names[o.arg], ino, cr.inos[o.arg])
			}
			return err
		})
	case opReadDir:
		cr.do(p, opReadDir, true, func() error {
			names, err := cr.c.ReadDir(p, dir)
			if err == nil && len(names) < len(cr.names) {
				err = fmt.Errorf("readdir lists %d entries, %d acknowledged", len(names), len(cr.names))
			}
			return err
		})
	}
}

// readMDSJournal reads back the journal segments the MDS streamed to the
// object store (rank 0's series, named as internal/mds names them).
func readMDSJournal(p cudele.Proc, cl *cudele.Cluster) ([]*journal.Event, error) {
	st := rados.NewStriper(cl.Objects())
	var evs []*journal.Event
	for idx := 0; ; idx++ {
		data, err := st.Read(p, mds.JournalPool, fmt.Sprintf("mds0_journal.%08d", idx))
		if errors.Is(err, rados.ErrNotFound) {
			return evs, nil
		}
		if err != nil {
			return nil, err
		}
		seg, err := journal.Decode(data)
		if err != nil {
			return nil, err
		}
		evs = append(evs, seg...)
	}
}

// decoupled-merge: four clients each decouple a subtree under a
// different cell, append N local creates each, then run their cell's
// Table I composition in lockstep.
const mergePerClient = 50_000

var mergeCells = []struct {
	cons policy.Consistency
	dur  policy.Durability
}{
	{cudele.ConsWeak, cudele.DurGlobal},
	{cudele.ConsInvisible, cudele.DurLocal},
	{cudele.ConsSpeculative, cudele.DurNone},
	{cudele.ConsStrongEventual, cudele.DurGlobal},
}

func runDecoupledMerge(it *iteration) error {
	t0 := time.Now()
	cl := cudele.NewCluster(cudele.WithSeed(it.seed))
	defer cl.Close()
	crs := make([]*clientRun, len(mergeCells))
	for i := range crs {
		crs[i] = newClientRun(cl, it, fmt.Sprintf("client.%d", i))
	}
	roots := make([]cudele.Ino, len(crs))
	var err error
	cl.Run(func(p cudele.Proc) {
		for i, cr := range crs {
			path := fmt.Sprintf("/cell%d", i)
			if _, err = cr.c.MkdirAll(p, path, 0o755); err != nil {
				return
			}
			if _, err = cl.DecouplePolicy(p, cr.c, path, &cudele.Policy{
				Consistency: mergeCells[i].cons, Durability: mergeCells[i].dur,
				AllocatedInodes: len(it.ops[i]) + 16, Interfere: cudele.InterfereAllow,
			}); err != nil {
				return
			}
			if roots[i], err = cr.c.DecoupledRoot(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	it.setup = time.Since(t0)
	if it.setupOnly {
		return nil
	}
	it.instrument(cl)

	// Append phase.
	for i, cr := range crs {
		i, cr := i, cr
		cl.Go(cr.name, func(p cudele.Proc) {
			for _, o := range it.ops[i] {
				name := cr.nextName(o.arg)
				cr.do(p, opLocalCreate, true, func() error {
					ino, err := cr.c.LocalCreate(p, roots[i], name, 0o644)
					if err == nil {
						cr.ack(name, ino)
					}
					return err
				})
			}
		})
	}
	if err := it.startPhase(); err != nil {
		return err
	}
	start := time.Now()
	cl.RunAll()
	it.phase = time.Since(start)
	if it.rec != nil {
		for _, cr := range crs {
			evs, err := cr.c.JournalEvents()
			if err != nil {
				return err
			}
			it.events = append(it.events, evs...)
		}
	}

	// Merge phase: each client runs its composition one step at a time,
	// so persist steps can be timed on their own.
	merged := make([]int, len(crs))
	var mergeErrs []error
	for i, cr := range crs {
		i, cr := i, cr
		comp, err := cudele.CompileTableI(mergeCells[i].cons, mergeCells[i].dur)
		if err != nil {
			return err
		}
		cl.Go(cr.name+".merge", func(p cudele.Proc) {
			for _, step := range comp {
				j, err := cr.c.Journal()
				if err != nil {
					mergeErrs = append(mergeErrs, err)
					return
				}
				events, kind := j.Len(), opCompose
				for _, m := range step.Parallel {
					switch m {
					case policy.MechLocalPersist, policy.MechGlobalPersist:
						kind = opPersist
					case policy.MechVolatileApply, policy.MechSpeculativeApply, policy.MechConvergeApply:
						kind = opApply
					}
				}
				d := cr.do(p, kind, false, func() error { return cr.c.RunComposition(p, cudele.Composition{step}) })
				switch kind {
				case opPersist:
					it.persist = append(it.persist, float64(d)/1e6)
					merged[i] += events
				case opApply:
					merged[i] += events
				}
			}
		})
	}
	start = time.Now()
	cl.RunAll()
	it.merge = time.Since(start)
	if err := it.stopPhase(); err != nil {
		return err
	}
	for _, n := range merged {
		it.mergeEvents += n
	}
	it.collect(crs...)

	errs := mergeErrs
	store := cl.MDS().Store()
	for i, cr := range crs {
		got, err := store.ReadDir(roots[i])
		if err == nil {
			if mergeCells[i].cons == cudele.ConsInvisible {
				err = sameNames(got) // invisible: nothing reaches the MDS
				if _, ok := cr.c.LocalJournalFile(); !ok && err == nil {
					err = errors.New("local persist left no journal file")
				}
			} else {
				err = sameNames(got, cr.names)
			}
		}
		if err == nil && mergeCells[i].dur == cudele.DurGlobal {
			cl.Run(func(p cudele.Proc) { err = fetchMatches(p, cr, cr.names) })
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("cell %v/%v: %w", mergeCells[i].cons, mergeCells[i].dur, err))
		}
	}
	if it.digest, err = simDigest(cl, crs...); err != nil {
		return err
	}
	it.counters = readCounters(cl, crs...)
	if it.rec != nil {
		it.store = store
	}
	if n := cl.Close(); n != 0 {
		errs = append(errs, fmt.Errorf("close reaped %d tasks", n))
	}
	return errors.Join(errs...)
}

// fetchMatches checks that FetchGlobalJournal returns exactly the
// persisted creates, in order.
func fetchMatches(p cudele.Proc, cr *clientRun, want []string) error {
	evs, err := cr.c.FetchGlobalJournal(p, cr.name)
	if err != nil {
		return fmt.Errorf("fetch global journal: %w", err)
	}
	var got []string
	for _, ev := range evs {
		if ev.Type == journal.EvCreate {
			got = append(got, ev.Name)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("global journal holds %d creates, %d persisted", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("global journal create %d is %q, persisted %q", i, got[i], want[i])
		}
	}
	return nil
}

// real-mixed: the real backend (goroutines, FileStore objects, loopback
// TCP). Two clients create in their own directories, stat their own
// files and list the peer's directory; client 0 also checkpoints a
// burst of local creates in a weak+global subtree (GlobalPersist, then
// VolatileApply). Each merge delays two of the other client's ops, by
// about 100 ms and 10 ms. One checkpoint per 70 ops makes those 1.4% of
// all ops, so the p99 lands inside the 10 ms group rather than at the
// edge of a group, where it would swing between runs.
const (
	realClients         = 2
	realPerClient       = 490
	realCheckpointEvery = 70
	realBurst           = 100
)

func runRealMixed(it *iteration) error {
	dataDir := filepath.Join(it.outdir, fmt.Sprintf("real-objects-%d", os.Getpid()))
	if err := os.RemoveAll(dataDir); err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	checkpoints := 0
	for _, o := range it.ops[0] {
		if o.kind == opCheckpoint {
			checkpoints++
		}
	}

	t0 := time.Now()
	cl := cudele.NewCluster(cudele.WithSeed(it.seed), cudele.WithBackend(cudele.BackendReal),
		cudele.WithDataDir(dataDir), cudele.WithLoopbackNet())
	defer cl.Close()
	crs := make([]*clientRun, realClients)
	for i := range crs {
		crs[i] = newClientRun(cl, it, fmt.Sprintf("client.%d", i))
	}
	ckpt := crs[0]
	dirs := make([]cudele.Ino, realClients)
	var ckptRoot cudele.Ino
	var err error
	cl.Run(func(p cudele.Proc) {
		for i, cr := range crs {
			if dirs[i], err = cr.c.Mkdir(p, cudele.RootIno, fmt.Sprintf("dir%d", i), 0o755); err != nil {
				return
			}
		}
		if _, err = ckpt.c.MkdirAll(p, "/ckpt", 0o755); err != nil {
			return
		}
		if _, err = cl.DecouplePolicy(p, ckpt.c, "/ckpt", &cudele.Policy{
			Consistency: cudele.ConsWeak, Durability: cudele.DurGlobal,
			AllocatedInodes: checkpoints*realBurst + 16, Interfere: cudele.InterfereAllow,
		}); err != nil {
			return
		}
		ckptRoot, err = ckpt.c.DecoupledRoot()
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	it.setup = time.Since(t0)
	if it.setupOnly {
		return nil
	}
	it.instrument(cl)

	var ckptNames, lastBurst []string
	checkpoint := func(p cudele.Proc) {
		lastBurst = lastBurst[:0]
		for b := 0; b < realBurst; b++ {
			name := fmt.Sprintf("ckpt%06d", len(ckptNames))
			ckpt.do(p, opLocalCreate, false, func() error {
				_, err := ckpt.c.LocalCreate(p, ckptRoot, name, 0o644)
				if err == nil {
					ckptNames = append(ckptNames, name)
					lastBurst = append(lastBurst, name)
				}
				return err
			})
		}
		if it.rec != nil {
			if evs, err := ckpt.c.JournalEvents(); err == nil {
				it.events = append(it.events, evs...)
			}
		}
		persist := ckpt.do(p, opPersist, false, func() error { return ckpt.c.GlobalPersist(p) })
		apply := ckpt.do(p, opApply, false, func() error {
			_, err := ckpt.c.VolatileApply(p)
			return err
		})
		it.persist = append(it.persist, float64(persist)/1e6)
		it.merge += persist + apply
		it.mergeEvents += 2 * realBurst
	}
	for i, cr := range crs {
		i, cr := i, cr
		peer := dirs[1-i]
		cl.Go(cr.name, func(p cudele.Proc) {
			for _, o := range it.ops[i] {
				switch o.kind {
				case opCheckpoint:
					checkpoint(p)
				case opCreate:
					name := cr.nextName(o.arg)
					cr.do(p, opCreate, true, func() error {
						ino, err := cr.c.Create(p, dirs[i], name, 0o644)
						if err == nil {
							cr.ack(name, ino)
						}
						return err
					})
				case opStat:
					cr.do(p, opStat, true, func() error {
						if int(o.arg) >= len(cr.inos) {
							return fmt.Errorf("stat of create %d, only %d acknowledged", o.arg, len(cr.inos))
						}
						r, err := cr.c.Stat(p, cr.inos[o.arg])
						if err == nil && r.Ino != cr.inos[o.arg] {
							err = fmt.Errorf("stat %d answered for %d", cr.inos[o.arg], r.Ino)
						}
						return err
					})
				case opReadDirPeer:
					cr.do(p, opReadDirPeer, true, func() error {
						_, err := cr.c.ReadDir(p, peer)
						return err
					})
				}
			}
		})
	}
	if err := it.startPhase(); err != nil {
		return err
	}
	start := time.Now()
	cl.RunAll()
	it.phase = time.Since(start)
	if err := it.stopPhase(); err != nil {
		return err
	}
	it.collect(crs...)

	var errs []error
	store := cl.MDS().Store()
	for i, cr := range crs {
		got, err := store.ReadDir(dirs[i])
		if err == nil {
			err = sameNames(got, cr.names)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("dir%d: %w", i, err))
		}
	}
	if got, err := store.ReadDir(ckptRoot); err != nil || sameNames(got, ckptNames) != nil {
		errs = append(errs, fmt.Errorf("/ckpt after %d checkpoints: %v %v", checkpoints, err, sameNames(got, ckptNames)))
	}
	if checkpoints > 0 {
		cl.Run(func(p cudele.Proc) { err = fetchMatches(p, ckpt, lastBurst) })
		errs = append(errs, err)
	}
	it.counters = readCounters(cl, crs...)
	if it.rec != nil {
		it.store = store
	}
	if n := cl.Close(); n != 0 {
		errs = append(errs, fmt.Errorf("close reaped %d tasks", n))
	}
	return errors.Join(errs...)
}
