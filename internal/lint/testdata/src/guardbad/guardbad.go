// Package guardbad is a guardcheck golden fixture. The test widens the
// analyzer's scope to include this package, standing in for a strategy
// plan-builder: unguarded collectives with Guarded twins are findings,
// guarded calls and twin-less helpers are not, and the allowlist works.
package guardbad

import "repro/internal/comm"

// planChunk builds one chunk's collectives the wrong way round.
func planChunk(g comm.Guard, data, out [][]float64, gpn int, dims comm.BlockDims, rr comm.RowRange) error {
	if _, err := comm.AlltoAllRows(comm.A2ADirect, data, out, gpn, dims, rr); err != nil { // want `unguarded collective comm.AlltoAllRows`
		return err
	}
	if _, err := comm.RingAllReduceChunk(data, gpn, rr); err != nil { // want `unguarded collective comm.RingAllReduceChunk`
		return err
	}
	// The updating ring is covered through RingAllReduceChunk's guarded twin.
	if _, err := comm.RingAllReduceUpdate(data, gpn, rr, nil); err != nil { // want `unguarded collective comm.RingAllReduceUpdate`
		return err
	}
	// Broadcast gained a Guarded twin with elastic recovery's weight
	// re-placement; the plain entry point is now a finding too.
	if _, err := comm.Broadcast(data, 0, gpn); err != nil { // want `unguarded collective comm.Broadcast`
		return err
	}
	// The guarded twin is the sanctioned path — no finding.
	if _, err := comm.AlltoAllRowsGuarded(g, comm.A2ADirect, data, out, gpn, dims, rr); err != nil {
		return err
	}
	// A collective that takes its Guard as a parameter needs no twin.
	if _, err := comm.AllGatherBlocks(g, blocks(data, dims), blocks(out, dims), gpn, rr); err != nil {
		return err
	}
	// RingAllGather has no Guarded twin; plain helpers stay silent.
	if _, _, err := comm.RingAllGather(data, gpn); err != nil {
		return err
	}
	return nil
}

// blocks lists each rank's buffer as one contiguous block.
func blocks(bufs [][]float64, dims comm.BlockDims) [][]comm.Block {
	out := make([][]comm.Block, len(bufs))
	for r, buf := range bufs {
		out[r] = []comm.Block{comm.Tile(buf, dims.Width)}
	}
	return out
}

// sequentialTail is the sanctioned exception: task-level injection covers
// it, and the allowlist comment says so.
func sequentialTail(data [][]float64, gpn int, rr comm.RowRange) error {
	//fsmoe:allow guardcheck fixture: sequential tail, injection arrives at task level
	_, err := comm.RingAllReduceChunk(data, gpn, rr)
	return err
}
