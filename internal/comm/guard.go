package comm

// Guard is a fault-injection hook a collective invokes immediately before it
// moves its first byte. A non-nil error aborts the call with every buffer
// untouched, so a transient guard failure may be retried bit-safely. A nil
// Guard is always allowed and checks nothing. The block-endpoint
// collectives (AlltoAllBlocks, AllGatherBlocks, ReduceScatterBlocks) take
// the guard as a parameter; the dense AlltoAllRows and Broadcast keep a
// …Guarded twin each, for the benchmark's probes and for recovery's weight
// re-placement. The ring AllReduce has no guard: its in-plan §5 slices are
// injected at task level, before the task body runs.
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
