package comm

// Guard is a fault-injection hook invoked by the *Guarded collective entry
// points immediately before the collective moves its first byte. A non-nil
// error aborts the call with every buffer untouched, so a transient guard
// failure may be retried bit-safely — including for the in-place ring
// AllReduce, which could not survive a mid-flight replay. A nil Guard is
// always allowed and checks nothing.
type Guard func() error

// AlltoAllRowsGuarded is AlltoAllRows behind a pre-transfer Guard.
func AlltoAllRowsGuarded(g Guard, algo A2AAlgo, data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return AlltoAllRows(algo, data, out, gpusPerNode, dims, rr)
}

// AlltoAllTilesGuarded is AlltoAllTiles behind a pre-transfer Guard.
func AlltoAllTilesGuarded(g Guard, algo A2AAlgo, send, recv [][][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return AlltoAllTiles(algo, send, recv, gpusPerNode, dims, rr)
}

// AllGatherRowsGuarded is AllGatherRows behind a pre-transfer Guard.
func AllGatherRowsGuarded(g Guard, data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return AllGatherRows(data, out, gpusPerNode, dims, rr)
}

// ReduceScatterRowsGuarded is ReduceScatterRows behind a pre-transfer Guard.
func ReduceScatterRowsGuarded(g Guard, data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return ReduceScatterRows(data, out, gpusPerNode, dims, rr)
}

// RingAllReduceChunkGuarded is RingAllReduceChunk behind a pre-transfer
// Guard. The guard runs before the first in-place accumulation, so a guard
// failure leaves data exactly as passed.
func RingAllReduceChunkGuarded(g Guard, data [][]float64, gpusPerNode int, rr RowRange) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return RingAllReduceChunk(data, gpusPerNode, rr)
}

// GroupAlltoAllRowsGuarded is GroupAlltoAllRows behind a pre-transfer Guard.
func GroupAlltoAllRowsGuarded(g Guard, algo A2AAlgo, group []int, data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return GroupAlltoAllRows(algo, group, data, out, gpusPerNode, dims, rr)
}

// GroupAllGatherRowsGuarded is GroupAllGatherRows behind a pre-transfer
// Guard.
func GroupAllGatherRowsGuarded(g Guard, group []int, data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return GroupAllGatherRows(group, data, out, gpusPerNode, dims, rr)
}

// GroupReduceScatterRowsGuarded is GroupReduceScatterRows behind a
// pre-transfer Guard.
func GroupReduceScatterRowsGuarded(g Guard, group []int, data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return GroupReduceScatterRows(group, data, out, gpusPerNode, dims, rr)
}

// RingAllGatherIntoGuarded is RingAllGatherInto behind a pre-transfer
// Guard. The guard runs before any out buffer is written, so a guard
// failure leaves the staging tensors untouched for a bit-safe retry.
func RingAllGatherIntoGuarded(g Guard, out, data [][]float64, gpusPerNode int) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return RingAllGatherInto(out, data, gpusPerNode)
}

// RingReduceScatterIntoGuarded is RingReduceScatterInto behind a
// pre-transfer Guard.
func RingReduceScatterIntoGuarded(g Guard, out, data [][]float64, gpusPerNode int) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return RingReduceScatterInto(out, data, gpusPerNode)
}

// BroadcastGuarded is Broadcast behind a pre-transfer Guard. The guard
// runs before the first ring copy, so a guard failure leaves every
// buffer untouched and the broadcast may be retried bit-safely — the
// contract the recovery path's weight re-placement relies on.
func BroadcastGuarded(g Guard, data [][]float64, root, gpusPerNode int) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return Broadcast(data, root, gpusPerNode)
}

// GroupRingAllGatherIntoGuarded is GroupRingAllGatherInto behind a
// pre-transfer Guard.
func GroupRingAllGatherIntoGuarded(g Guard, group []int, out, data [][]float64, gpusPerNode int) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return GroupRingAllGatherInto(group, out, data, gpusPerNode)
}

// GroupRingReduceScatterIntoGuarded is GroupRingReduceScatterInto behind a
// pre-transfer Guard.
func GroupRingReduceScatterIntoGuarded(g Guard, group []int, out, data [][]float64, gpusPerNode int) (Stats, error) {
	if g != nil {
		if err := g(); err != nil {
			return Stats{}, err
		}
	}
	return GroupRingReduceScatterInto(group, out, data, gpusPerNode)
}
