package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"cudele"
)

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (w *pb) varint(num int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pb) bytes(num int, data []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|2)
	w.b = binary.AppendUvarint(w.b, uint64(len(data)))
	w.b = append(w.b, data...)
}

func (w *pb) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(num, p)
}

// syntheticProfile encodes a CPU profile whose samples have the given
// stacks (leaf first; each location a list of functions, innermost
// inlined frame first) and CPU values. Odd samples use packed repeated
// fields and even ones unpacked, as the runtime's encoder mixes both.
func syntheticProfile(t *testing.T, stacks [][][]string, values []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pb
		vt.varint(1, strIdx(st[0]))
		vt.varint(2, strIdx(st[1]))
		prof.bytes(1, vt.b)
	}
	funcID := map[string]uint64{}
	locID := uint64(0)
	var locs, funcs pb
	for i, stack := range stacks {
		var ids []uint64
		for _, loc := range stack {
			locID++
			var l pb
			l.varint(1, locID)
			for _, fn := range loc {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f pb
					f.varint(1, id)
					f.varint(2, strIdx(fn))
					funcs.bytes(5, f.b)
				}
				var line pb
				line.varint(1, id)
				l.bytes(4, line.b)
			}
			locs.bytes(4, l.b)
			ids = append(ids, locID)
		}
		var s pb
		if i%2 == 1 {
			s.packed(1, ids...)
			s.packed(2, 1, uint64(values[i]))
		} else {
			for _, id := range ids {
				s.varint(1, id)
			}
			s.varint(2, 1)
			s.varint(2, uint64(values[i]))
		}
		prof.bytes(2, s.b)
	}
	prof.b = append(prof.b, locs.b...)
	prof.b = append(prof.b, funcs.b...)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldAttributesSyntheticProfile(t *testing.T) {
	stacks := [][][]string{
		// Allocation inside a namespace insert, called from an MDS
		// handler running on a sim process: the innermost internal
		// frame (namespace) is charged.
		{{"runtime.mallocgc"}, {"cudele/internal/namespace.(*Store).Create"},
			{"cudele/internal/mds.(*Server).handle.func1"}, {"cudele/internal/sim.(*Engine).Go.func1.1"}},
		// No repository frame at all: GC.
		{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}},
		// Repository frames outside internal/: the facade and this
		// benchmark.
		{{"runtime.memmove"}, {"main.runRPCStorm"}, {"cudele.(*Cluster).Run"}},
		// A sim function inlined into a transport function in one
		// location: the inlined (innermost) frame wins.
		{{"cudele/internal/sim.(*Proc).Sleep", "cudele/internal/transport.(*Wire).Call"}},
		// A helper package mapped to other, below a client frame.
		{{"cudele/internal/stats.(*Histogram).Record"}, {"cudele/internal/client.(*Client).submit"}},
		{{"cudele/internal/journal.(*Encoder).AppendEvent"}, {"cudele/internal/client.(*Client).appendEvent"}},
		{{"syscall.Syscall"}, {"cudele/internal/rados.(*FileStore).Put"}},
		{{"runtime.futex"}, {"cudele/internal/realrt.(*Task).Sleep"}},
	}
	values := []int64{30, 50, 7, 11, 5, 13, 17, 19}
	got, err := foldProfile(syntheticProfile(t, stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"namespace": 30, "goruntime": 50, "other": 7 + 5, "sim": 11,
		"journal": 13, "rados": 17, "realrt": 19}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
}

func TestFoldRejectsCorruptProfile(t *testing.T) {
	if _, err := foldProfile([]byte{0x0a, 0xff}); err == nil {
		t.Fatal("truncated profile folded without error")
	}
}

func TestLayerMapCoversEveryInternalPackage(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, l := range layers {
		named[l] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		l, ok := layerOf[e.Name()]
		if !ok {
			t.Errorf("internal/%s has no layer in layerOf", e.Name())
		} else if !named[l] {
			t.Errorf("internal/%s maps to unknown layer %q", e.Name(), l)
		}
	}
	for pkg := range layerOf {
		if _, err := os.Stat("../internal/" + pkg); err != nil {
			t.Errorf("layerOf names internal/%s, which does not exist", pkg)
		}
	}
}

func TestWorkloadGenerationIsDeterministicPerSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := wl.gen(7), wl.gen(7), wl.gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", wl.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same ops", wl.name)
		}
	}
}

func TestGeneratedMixes(t *testing.T) {
	count := func(ops []op) map[opKind]int {
		n := map[opKind]int{}
		created := 0
		for _, o := range ops {
			n[o.kind]++
			switch o.kind {
			case opCreate:
				created++
			case opLookup, opStat:
				if int(o.arg) >= created {
					t.Fatalf("%v of create %d before it is issued", o.kind, o.arg)
				}
			}
		}
		return n
	}
	for _, seed := range []int64{3, 4} {
		for _, ops := range genRPCStorm(seed, 4, 20_000, 1000) {
			want := map[opKind]int{opCreate: 17_500, opLookup: 2_500, opReadDir: 20}
			if n := count(ops); !reflect.DeepEqual(n, want) {
				t.Errorf("rpc-storm seed %d: mix %v, want %v", seed, n, want)
			}
		}
		for c, ops := range genRealMixed(seed, 2, 10_000, 100) {
			want := map[opKind]int{opCreate: 5_000, opStat: 3_000, opReadDirPeer: 2_000}
			if c == 0 {
				want[opCheckpoint] = 100
			}
			if n := count(ops); !reflect.DeepEqual(n, want) {
				t.Errorf("real-mixed seed %d client %d: mix %v, want %v", seed, c, n, want)
			}
		}
	}
}

func TestSpanSelfTimeExcludesChildren(t *testing.T) {
	r := newSpanRec(false)
	handler := r.interceptor()(func(p cudele.Proc, msg any) any {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	id := r.beginOp(nil, "client.0", opCreate)
	time.Sleep(time.Millisecond)
	handler(nil, "msg")
	r.endOp(nil, id)
	self, mds := r.selfTimes()
	if self.n != 1 || mds.n != 1 {
		t.Fatalf("got %d client and %d handler spans, want 1 and 1", self.n, mds.n)
	}
	s := r.spans[id]
	whole, child := float64(s.h1-s.h0)/1e6, float64(s.child)/1e6
	handlerMs := float64(r.spans[1].h1-r.spans[1].h0) / 1e6
	if child != handlerMs || handlerMs < 2 {
		t.Fatalf("client span covers %.3f ms of children, its handler took %.3f ms", child, handlerMs)
	}
	// The histogram reads within its 1.2% bucket width.
	if got, want := self.quantileMs(0.5), whole-child; got < want*0.98 || got > want*1.02 || want < 1 {
		t.Fatalf("self time %.3f ms, want span %.3f ms minus handler %.3f ms", got, whole, child)
	}
	if r.spans[1].parent != id {
		t.Fatalf("handler span's parent is %d, want %d", r.spans[1].parent, id)
	}
}

func TestWorkloadsPassTheirChecksAtSmallScale(t *testing.T) {
	small := map[string][][]op{
		"rpc-storm":       genRPCStorm(5, stormClients, 400, 100),
		"decoupled-merge": genLocalCreates(5, len(mergeCells), 300),
		"real-mixed":      genRealMixed(5, realClients, 60, 20),
	}
	o := options{seed: 5, outdir: t.TempDir()}
	for _, wl := range workloads {
		digests := map[string]bool{}
		for _, traced := range []bool{false, true} {
			it := newIteration(wl, o, small[wl.name], traced)
			if err := wl.run(it); err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if it.failed != 0 || it.attempted == 0 || it.phaseOps == 0 || it.mergeEvents == 0 {
				t.Fatalf("%s traced=%v: %d of %d ops failed (%v), %d counted, %d merge events",
					wl.name, traced, it.failed, it.attempted, it.errs, it.phaseOps, it.mergeEvents)
			}
			if traced && len(it.events) == 0 {
				t.Fatalf("%s: traced run kept no journal events", wl.name)
			}
			digests[it.digest] = true
		}
		if wl.sim && len(digests) != 1 {
			t.Errorf("%s: tracing changed the simulated outcome: %v", wl.name, digests)
		}
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	for us := 1; us <= 1000; us++ {
		h.add(time.Duration(us) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 0.5005}, {0.99, 0.99001}, {0, 0.001}, {1, 1}} {
		if got := h.quantileMs(c.q); got < c.want*0.985 || got > c.want*1.015 {
			t.Errorf("q%.2f = %.5f ms, want %.5f ms within a bucket", c.q, got, c.want)
		}
	}
	var empty latHist
	if !math.IsNaN(empty.quantileMs(0.5)) {
		t.Error("empty histogram has a median")
	}
}
