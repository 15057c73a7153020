package comm

import "fmt"

// This file holds the group-scoped dense entry points: the same algorithms
// restricted to an arbitrary subset of the global ranks. A group is a list
// of distinct global rank ids. Buffers are passed as the full
// per-global-rank slices; a group call touches only the members' entries
// and is byte-identical to running the monolithic collective on just those
// ranks (the sub-slices alias the caller's buffers, so nothing is copied to
// restrict the scope). Stats locality is evaluated on group-local indices
// against gpusPerNode — callers model the subset's node shape, exactly as
// the monolithic collectives model the global one.
//
// With block endpoints a group is just which lists the caller passes, so
// internal/moe's in-group and between-group collectives (§4's generalized
// MoE layer) need none of this; the repository benchmark's probes are what
// call these forms.

// checkGroup validates a rank subset against the buffer count n: at least
// one member, every id in [0, n), no duplicates.
func checkGroup(group []int, n int) error {
	if len(group) == 0 {
		return fmt.Errorf("comm: empty rank group")
	}
	seen := make(map[int]bool, len(group))
	for _, r := range group {
		if r < 0 || r >= n {
			return fmt.Errorf("comm: group rank %d outside [0, %d)", r, n)
		}
		if seen[r] {
			return fmt.Errorf("comm: duplicate rank %d in group", r)
		}
		seen[r] = true
	}
	return nil
}

// groupSlices selects the members' buffers. The sub-slices alias the
// caller's data, so collective writes land in the global buffers.
func groupSlices(all [][]float64, group []int) ([][]float64, error) {
	if err := checkGroup(group, len(all)); err != nil {
		return nil, err
	}
	sub := make([][]float64, len(group))
	for k, r := range group {
		sub[k] = all[r]
	}
	return sub, nil
}

// GroupAlltoAllRows runs AlltoAllRows among the ranks of group: member k
// of the group plays rank k of a len(group)-rank AlltoAll over
// data[group[k]] / out[group[k]] (per-destination blocks keyed by group
// position). Non-member buffers are never touched. Byte-identical to the
// monolithic AlltoAllRows on the members' buffers under any grouping and
// any tiling of the row range.
func GroupAlltoAllRows(algo A2AAlgo, group []int, data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	sub, err := groupSlices(data, group)
	if err != nil {
		return Stats{}, err
	}
	subOut, err := groupSlices(out, group)
	if err != nil {
		return Stats{}, err
	}
	return AlltoAllRows(algo, sub, subOut, gpusPerNode, dims, rr)
}

// GroupAllGatherRows runs AllGatherRows among the ranks of group, with the
// same full-result-buffer convention: out[group[k]] holds len(group)
// stacked blocks, source group[s]'s block at offset s·dims.Elems().
func GroupAllGatherRows(group []int, data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	sub, err := groupSlices(data, group)
	if err != nil {
		return Stats{}, err
	}
	subOut, err := groupSlices(out, group)
	if err != nil {
		return Stats{}, err
	}
	return AllGatherRows(sub, subOut, gpusPerNode, dims, rr)
}
