package main

import (
	"fmt"
	"math/rand"
)

// opKind is one kind of client operation a workload issues.
type opKind uint8

const (
	opCreate      opKind = iota // RPC create in the client's own directory
	opLookup                    // RPC lookup of one of the client's own files
	opReadDir                   // RPC readdir of the client's own directory
	opStat                      // RPC getattr of one of the client's own files
	opReadDirPeer               // RPC readdir of the other client's directory
	opLocalCreate               // decoupled create (Append Client Journal)
	opCheckpoint                // burst of local creates, GlobalPersist, VolatileApply
	// Calls a checkpoint or a merge phase makes; never generated.
	opPersist // LocalPersist or GlobalPersist
	opApply   // a merge into the MDS namespace
	opCompose // any other composition step
	opKinds
)

var opNames = [opKinds]string{"create", "lookup", "readdir", "stat", "readdir_peer",
	"local_create", "checkpoint", "persist", "apply", "compose"}

func (k opKind) String() string { return opNames[k] }

// op is one generated operation. For creates, arg is the name's tag; for
// lookups and stats, the index of an earlier create of the same client.
type op struct {
	kind opKind
	arg  uint32
}

// createName names the i-th file a client creates; tag makes names
// depend on the seed without making them collide.
func createName(i int, tag uint32) string { return fmt.Sprintf("f%06d.%04x", i, tag&0xffff) }

// block returns a seeded shuffle of counts[k] ops of each kind k. Mixes
// are drawn in blocks, so every seed issues the same number of ops of
// each kind and only their order depends on the seed.
func block(r *rand.Rand, counts map[opKind]int) []opKind {
	var b []opKind
	for _, k := range []opKind{opCreate, opLookup, opStat, opReadDirPeer} {
		for i := 0; i < counts[k]; i++ {
			b = append(b, k)
		}
	}
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// mixed expands blocks of kinds into ops: creates get a name tag,
// lookups and stats the index of an earlier create, and one extra op of
// kind periodic lands at a random point of every window of every ops
// (none when every is 0).
func mixed(r *rand.Rand, n int, counts map[opKind]int, periodic opKind, every int) []op {
	ops := make([]op, 0, n+n/max(every, 1)+1)
	created := 0
	next := -1
	if every > 0 {
		next = r.Intn(every)
	}
	var b []opKind
	for i := 0; i < n; i++ {
		if i == next {
			ops = append(ops, op{kind: periodic})
			next = (i/every+1)*every + r.Intn(every)
		}
		if len(b) == 0 {
			b = block(r, counts)
		}
		k := b[0]
		b = b[1:]
		if k != opCreate && created == 0 {
			// Nothing to look up yet: swap in the block's next create.
			for j, bk := range b {
				if bk == opCreate {
					b[j], k = k, opCreate
					break
				}
			}
		}
		switch k {
		case opCreate:
			ops = append(ops, op{kind: k, arg: r.Uint32()})
			created++
		case opLookup, opStat:
			ops = append(ops, op{kind: k, arg: uint32(r.Intn(created))})
		default:
			ops = append(ops, op{kind: k})
		}
	}
	return ops
}

// genRPCStorm generates each client's closed-loop op stream: in every
// eight ops seven creates and one lookup of an own file, plus a readdir
// of the own directory in every window of readdirEvery ops.
func genRPCStorm(seed int64, clients, perClient, readdirEvery int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		out[c] = mixed(r, perClient, map[opKind]int{opCreate: 7, opLookup: 1}, opReadDir, readdirEvery)
	}
	return out
}

// genLocalCreates generates each client's append phase: perClient
// decoupled creates with seed-dependent names.
func genLocalCreates(seed int64, clients, perClient int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		r := rand.New(rand.NewSource(seed*1_000_033 + int64(c)))
		ops := make([]op, perClient)
		for i := range ops {
			ops[i] = op{kind: opLocalCreate, arg: r.Uint32()}
		}
		out[c] = ops
	}
	return out
}

// genRealMixed generates the real-backend mix: in every ten ops five
// creates, three stats of own files and two readdirs of the peer's
// directory. Client 0 also checkpoints once in every window of
// checkpointEvery ops.
func genRealMixed(seed int64, clients, perClient, checkpointEvery int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		r := rand.New(rand.NewSource(seed*1_000_037 + int64(c)))
		every := 0
		if c == 0 {
			every = checkpointEvery
		}
		out[c] = mixed(r, perClient, map[opKind]int{opCreate: 5, opStat: 3, opReadDirPeer: 2},
			opCheckpoint, every)
	}
	return out
}
