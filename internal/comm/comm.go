// Package comm implements the collective-communication algorithms the
// paper's systems rely on, with real data movement over in-memory rank
// buffers — the NCCL substitute of this reproduction.
//
// Implemented algorithms:
//
//   - Ring AllReduce, AllGather, ReduceScatter and Broadcast (NCCL's
//     defaults), used by ESP-AllGather, ESP-ReduceScatter and the
//     recovery's weight re-placement; the ring AllReduce is the reference
//     for §5's Gradient-AllReduce;
//   - Direct (flat) AlltoAll, the NCCL algorithm DeepSpeed-MoE issues;
//   - 1DH AlltoAll (Hetu): intra-node gather → leader exchange → scatter;
//   - 2DH AlltoAll (Tutel / DeepSpeed): intra-node regrouping phase
//     followed by an inter-node exchange between same-local-index GPUs.
//
// The collectives write into caller-owned buffers (only ChunkedAlltoAll, a
// loop of windows, allocates its result), and each call moves one window: a
// row range of every block (AlltoAll, AllGather, ReduceScatter) or an
// element range of a flat buffer (AllReduce). The whole collective is the
// window that spans everything, and any tiling of the windows reproduces it
// byte for byte — the property the chunked pipelines of §4 and §5 rest on.
// The AlltoAll variants produce byte-identical results; they differ only in
// *how* data moves, which the Stats accounting captures (message counts and
// inter- vs intra-node volume). The scheduler's cost models in
// internal/topology are calibrated against exactly these step structures.
package comm

import (
	"fmt"
)

// Stats records the traffic an algorithm generated, used to compare
// algorithms and to sanity-check the cost models. A message counts once
// per step of the algorithm whatever it carries; the volumes count the
// elements of the rows that moved, which for blocks with a fill
// (Block.Filled) are the filled rows alone.
type Stats struct {
	IntraMessages int     // messages between GPUs of one node
	InterMessages int     // messages crossing nodes
	IntraVolume   float64 // elements moved intra-node
	InterVolume   float64 // elements moved inter-node
}

// Merge accumulates another run's traffic into s (chunked collectives sum
// their per-chunk stats this way).
func (s *Stats) Merge(o Stats) {
	s.IntraMessages += o.IntraMessages
	s.InterMessages += o.InterMessages
	s.IntraVolume += o.IntraVolume
	s.InterVolume += o.InterVolume
}

func (s *Stats) add(sameNode bool, n int) {
	if sameNode {
		s.IntraMessages++
		s.IntraVolume += float64(n)
	} else {
		s.InterMessages++
		s.InterVolume += float64(n)
	}
}

// world is a helper binding rank buffers to a node shape.
type world struct {
	g int // gpus per node; 0 disables node accounting (all inter)
}

func (w world) sameNode(a, b int) bool {
	if w.g <= 0 {
		return false
	}
	return a/w.g == b/w.g
}

// checkUniform validates that every rank buffer has the same length.
func checkUniform(data [][]float64) (int, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("comm: no ranks")
	}
	n := len(data[0])
	for r, d := range data {
		if len(d) != n {
			return 0, fmt.Errorf("comm: rank %d has %d elements, rank 0 has %d", r, len(d), n)
		}
	}
	return n, nil
}

// checkRange validates that rr lies inside a buffer of n elements.
func checkRange(op string, rr RowRange, n int) error {
	if rr.Lo < 0 || rr.Hi < rr.Lo || rr.Hi > n {
		return fmt.Errorf("comm: %s range [%d,%d) outside buffer of %d elements", op, rr.Lo, rr.Hi, n)
	}
	return nil
}

// RingAllReduce sums the rank buffers elementwise into every rank, using
// the standard 2(p-1)-step ring: a reduce-scatter phase followed by an
// allgather phase, each moving ~n/p per step. Buffers are updated in
// place. gpusPerNode attributes traffic for Stats (pass 0 to count all
// traffic as inter-node). It is the single-chunk case of the restricted
// ring in allreduce.go, so any tiling reduced through RingAllReduceChunk is
// byte-identical to it by construction.
func RingAllReduce(data [][]float64, gpusPerNode int) (Stats, error) {
	n, err := checkUniform(data)
	if err != nil {
		return Stats{}, err
	}
	return RingAllReduceChunk(data, gpusPerNode, RowRange{Lo: 0, Hi: n})
}
