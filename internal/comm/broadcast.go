package comm

import "fmt"

// Broadcast is BroadcastRange over the whole buffer. Elastic recovery uses
// it to re-place restored expert weights onto their new owner ranks.
func Broadcast(data [][]float64, root, gpusPerNode int) (Stats, error) {
	n, err := checkUniform(data)
	if err != nil {
		return Stats{}, err
	}
	return BroadcastRange(data, root, gpusPerNode, RowRange{Lo: 0, Hi: n})
}

// BroadcastRange copies elements rr of root's buffer into every other
// rank's buffer along the ring (NCCL's ring broadcast): step s moves the
// window from rank root+s to root+s+1. Nothing outside the window moves.
// The §5 owner gather (internal/gradsync) broadcasts its tiles with it.
func BroadcastRange(data [][]float64, root, gpusPerNode int, rr RowRange) (Stats, error) {
	n, err := checkUniform(data)
	if err != nil {
		return Stats{}, err
	}
	p := len(data)
	if root < 0 || root >= p {
		return Stats{}, fmt.Errorf("comm: broadcast root %d out of range [0, %d)", root, p)
	}
	if err := checkRange("broadcast", rr, n); err != nil {
		return Stats{}, err
	}
	src := data[root][rr.Lo:rr.Hi]
	for s := 1; s < p; s++ {
		dst := data[(root+s)%p][rr.Lo:rr.Hi]
		copy(dst, src)
		src = dst
	}
	return BroadcastStats(p, root, gpusPerNode, rr.Len()), nil
}

// BroadcastStats is the traffic of a ring broadcast of n elements from root
// over p ranks, p−1 messages: one broadcast however many windows move it.
func BroadcastStats(p, root, gpusPerNode, n int) Stats {
	var st Stats
	if n <= 0 {
		return st
	}
	w := world{g: gpusPerNode}
	for s := 0; s < p-1; s++ {
		src := (root + s) % p
		st.add(w.sameNode(src, (src+1)%p), n)
	}
	return st
}
