package comm

// Guard is a fault-injection hook a collective invokes immediately before it
// moves its first byte. A non-nil error aborts the call with every buffer
// untouched, so a transient guard failure may be retried bit-safely —
// including for the in-place ring AllReduce, which could not survive a
// mid-flight replay. A nil Guard is always allowed and checks nothing. The
// block-endpoint collectives (AlltoAllBlocks, AllGatherBlocks,
// ReduceScatterBlocks) take the guard as a parameter; the dense forms below
// predate that and keep a …Guarded twin each.
type Guard func() error

func (g Guard) check() error {
	if g == nil {
		return nil
	}
	return g()
}

// AlltoAllRowsGuarded is AlltoAllRows behind a pre-transfer Guard.
func AlltoAllRowsGuarded(g Guard, algo A2AAlgo, data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	if err := g.check(); err != nil {
		return Stats{}, err
	}
	return AlltoAllRows(algo, data, out, gpusPerNode, dims, rr)
}

// RingAllReduceChunkGuarded is RingAllReduceChunk behind a pre-transfer
// Guard. The guard runs before the first in-place accumulation, so a guard
// failure leaves data exactly as passed.
func RingAllReduceChunkGuarded(g Guard, data [][]float64, gpusPerNode int, rr RowRange) (Stats, error) {
	if err := g.check(); err != nil {
		return Stats{}, err
	}
	return RingAllReduceChunk(data, gpusPerNode, rr)
}

// BroadcastGuarded is Broadcast behind a pre-transfer Guard. The guard
// runs before the first ring copy, so a guard failure leaves every
// buffer untouched and the broadcast may be retried bit-safely — the
// contract the recovery path's weight re-placement relies on.
func BroadcastGuarded(g Guard, data [][]float64, root, gpusPerNode int) (Stats, error) {
	if err := g.check(); err != nil {
		return Stats{}, err
	}
	return Broadcast(data, root, gpusPerNode)
}
