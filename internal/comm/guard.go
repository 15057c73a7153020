package comm

// Guard is a hook a collective invokes immediately before it moves its first
// byte. A non-nil error aborts the call with every buffer untouched, so a
// transient guard failure may be retried bit-safely. A nil Guard is always
// allowed and checks nothing. Only AlltoAllRowsGuarded takes one: fault
// injection reaches every collective of a plan at task level, before the
// task body runs (internal/fault, Plan.Check), and recovery's weight
// re-placement Broadcasts through the same check.
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
