package comm

import (
	"fmt"

	"repro/internal/tensor"
)

// blockView validates and returns the per-destination block size of an
// AlltoAll input: each rank's buffer is p equal blocks, block d destined to
// rank d.
func blockView(data [][]float64) (int, error) {
	n, err := checkUniform(data)
	if err != nil {
		return 0, err
	}
	p := len(data)
	if n%p != 0 {
		return 0, fmt.Errorf("comm: alltoall length %d not divisible by %d ranks", n, p)
	}
	return n / p, nil
}

// checkInto validates a dense AlltoAll destination: p rank buffers of b·p
// elements each, the layout of the source.
func checkInto(out [][]float64, p, b int) error {
	if len(out) != p {
		return fmt.Errorf("comm: alltoall destination has %d ranks, want %d", len(out), p)
	}
	for r := range out {
		if len(out[r]) != b*p {
			return fmt.Errorf("comm: alltoall destination rank %d has %d elements, want %d", r, len(out[r]), b*p)
		}
	}
	return nil
}

// a2aMove is one AlltoAll over block endpoints (chunked.go), restricted to
// rows [lo, hi) of every block: p ranks, k blocks of width w per peer, nodes
// of g. Block d·k+j of a rank is the j-th block it exchanges with peer d.
// Rows outside the window are neither read nor written.
type a2aMove struct {
	dst, src endpoint
	p, k, g  int
	w        int
	lo, hi   int
}

// perPeer is the element count one rank sends one peer.
func (m a2aMove) perPeer() int { return m.k * (m.hi - m.lo) * m.w }

// pack copies the window of the k blocks rank s sends to d into slot;
// unpack lands slot in the window of the k blocks d receives from s.
func (m a2aMove) pack(slot []float64, s, d int) {
	rows := m.hi - m.lo
	n := rows * m.w
	for j := 0; j < m.k; j++ {
		copyRows(Tile(slot[j*n:(j+1)*n], m.w), 0, m.src.at(s, d*m.k+j), m.lo, rows)
	}
}

func (m a2aMove) unpack(slot []float64, s, d int) {
	rows := m.hi - m.lo
	n := rows * m.w
	for j := 0; j < m.k; j++ {
		copyRows(m.dst.at(d, s*m.k+j), m.lo, Tile(slot[j*n:(j+1)*n], m.w), 0, rows)
	}
}

// run dispatches to the named algorithm.
func (m a2aMove) run(algo A2AAlgo) (Stats, error) {
	switch algo {
	case A2ADirect:
		return m.direct(), nil
	case A2A1DH:
		return m.hier1D()
	case A2A2DH:
		return m.hier2D()
	default:
		return Stats{}, fmt.Errorf("comm: unknown alltoall algorithm %q", algo)
	}
}

// nodes validates the node shape of the hierarchical algorithms.
func (m a2aMove) nodes() (int, error) {
	if m.g <= 0 || m.p%m.g != 0 {
		return 0, fmt.Errorf("comm: %d ranks not divisible into nodes of %d", m.p, m.g)
	}
	return m.p / m.g, nil
}

// direct is the flat NCCL algorithm: every rank sends block d straight to
// rank d — p·(p-1) point-to-point messages. Every window moves straight
// from its source block to its destination block: one copy per (source,
// destination, block) when both are contiguous, one per row otherwise.
func (m a2aMove) direct() Stats {
	var st Stats
	w := world{g: m.g}
	for s := 0; s < m.p; s++ {
		for d := 0; d < m.p; d++ {
			for j := 0; j < m.k; j++ {
				copyRows(m.dst.at(d, s*m.k+j), m.lo, m.src.at(s, d*m.k+j), m.lo, m.hi-m.lo)
			}
			if s != d {
				st.add(w.sameNode(s, d), m.perPeer())
			}
		}
	}
	return st
}

// hier1D is Hetu's 1DH algorithm: GPUs in a node first gather their
// traffic onto the node leader (local index 0), leaders exchange aggregated
// messages across nodes, and each leader scatters the arrivals within its
// node. It trades 2 extra intra-node hops for nodes·(nodes-1) instead of
// p·(p-1) inter-node messages. The hops run on window-sized arenas from the
// shared tensor free-list (one leader and one arrival arena per node),
// keeping allocation churn out of measured intervals.
func (m a2aMove) hier1D() (Stats, error) {
	var st Stats
	nodes, err := m.nodes()
	if err != nil {
		return st, err
	}
	p, g, b := m.p, m.g, m.perPeer()
	// leader[nd] holds, on the node leader, every slot of node nd's g
	// sources: slot ((s - nd·g)·p + d) is what source s sends destination d.
	// arrived[nd] holds, after the leader exchange, every slot destined to
	// node nd's g ranks: slot (s·g + (d - nd·g)).
	leader := make([]*tensor.Tensor, nodes)
	arrived := make([]*tensor.Tensor, nodes)
	for nd := 0; nd < nodes; nd++ {
		leader[nd] = tensor.GetUninit(g * p * b)
		arrived[nd] = tensor.GetUninit(p * g * b)
	}
	defer func() {
		for nd := 0; nd < nodes; nd++ {
			tensor.Put(leader[nd])
			tensor.Put(arrived[nd])
		}
	}()
	// Phase 1: gather to leader.
	for s := 0; s < p; s++ {
		nd := s / g
		lead := nd * g
		ld := leader[nd].Data()
		for d := 0; d < p; d++ {
			off := ((s-nd*g)*p + d) * b
			m.pack(ld[off:off+b], s, d)
			if s != lead {
				st.add(true, b)
			}
		}
	}
	// Phase 2: leaders exchange across nodes. Leader nd sends to leader nd'
	// everything destined to ranks of node nd'.
	for nd := 0; nd < nodes; nd++ {
		ld := leader[nd].Data()
		for nd2 := 0; nd2 < nodes; nd2++ {
			ad := arrived[nd2].Data()
			moved := 0
			for s := nd * g; s < (nd+1)*g; s++ {
				for d := nd2 * g; d < (nd2+1)*g; d++ {
					src := ((s-nd*g)*p + d) * b
					dst := (s*g + (d - nd2*g)) * b
					copy(ad[dst:dst+b], ld[src:src+b])
					moved += b
				}
			}
			if nd != nd2 && moved > 0 {
				st.add(false, moved)
			}
		}
	}
	// Phase 3: leaders scatter to their node's GPUs, ordered by source.
	for d := 0; d < p; d++ {
		nd := d / g
		lead := nd * g
		ad := arrived[nd].Data()
		for s := 0; s < p; s++ {
			off := (s*g + (d - nd*g)) * b
			m.unpack(ad[off:off+b], s, d)
			if d != lead {
				st.add(true, b)
			}
		}
	}
	return st, nil
}

// hier2D is the 2DH algorithm of Tutel/DeepSpeed-MoE:
//
//	phase 1 (intra-node): rank (node, l) hands each block destined to a
//	  rank with local index l' to its node sibling (node, l'); afterwards
//	  sibling l' holds every block of its node whose destination has local
//	  index l';
//	phase 2 (inter-node): same-local-index ranks across nodes exchange the
//	  aggregated per-node messages — nodes·(nodes-1) large messages per
//	  local index instead of p·(p-1) small ones.
//
// The hops run on window-sized pooled regrouping arenas, one per rank.
func (m a2aMove) hier2D() (Stats, error) {
	var st Stats
	nodes, err := m.nodes()
	if err != nil {
		return st, err
	}
	p, g, b := m.p, m.g, m.perPeer()
	// mid[r] for r = (nd, l) holds, after phase 1, every slot from node
	// nd's g sources destined to a rank with local index l: slot
	// ((s - nd·g)·nodes + d/g) is what source s sends destination d
	// (d ≡ l mod g, so d/g identifies it).
	mid := make([]*tensor.Tensor, p)
	for r := 0; r < p; r++ {
		mid[r] = tensor.GetUninit(g * nodes * b)
	}
	defer func() {
		for r := 0; r < p; r++ {
			tensor.Put(mid[r])
		}
	}()
	for s := 0; s < p; s++ {
		nd := s / g
		for d := 0; d < p; d++ {
			holder := nd*g + d%g
			off := ((s-nd*g)*nodes + d/g) * b
			m.pack(mid[holder].Data()[off:off+b], s, d)
			if holder != s {
				st.add(true, b)
			}
		}
	}
	// Phase 2: rank (node, l) sends to (node', l) all held slots destined
	// to node'. Because every held slot's destination has local index l,
	// the only in-node' destination is rank (node', l) itself, so the
	// arrivals land directly in the source-ordered output layout.
	for nd := 0; nd < nodes; nd++ {
		for l := 0; l < g; l++ {
			md := mid[nd*g+l].Data()
			for nd2 := 0; nd2 < nodes; nd2++ {
				peer := nd2*g + l
				moved := 0
				for s := nd * g; s < (nd+1)*g; s++ {
					off := ((s-nd*g)*nodes + nd2) * b
					m.unpack(md[off:off+b], s, peer)
					moved += b
				}
				if nd != nd2 && moved > 0 {
					st.add(false, moved)
				}
			}
		}
	}
	return st, nil
}

// A2AAlgo names an AlltoAll implementation, the §3.1 Dispatch sub-module's
// pluggable algorithm choice.
type A2AAlgo string

const (
	A2ADirect A2AAlgo = "nccl-direct"
	A2A1DH    A2AAlgo = "1dh-hetu"
	A2A2DH    A2AAlgo = "2dh-tutel"
)
