package comm

import "fmt"

// Broadcast copies root's buffer into every other rank's buffer along the
// ring (NCCL's ring broadcast): step s moves it from rank root+s to
// root+s+1, p−1 messages of the whole buffer (none of an empty one).
// Elastic recovery uses it to re-place restored expert weights onto their
// new owner ranks.
func Broadcast(data [][]float64, root, gpusPerNode int) (Stats, error) {
	n, err := checkUniform(data)
	if err != nil {
		return Stats{}, err
	}
	p := len(data)
	if root < 0 || root >= p {
		return Stats{}, fmt.Errorf("comm: broadcast root %d out of range [0, %d)", root, p)
	}
	var st Stats
	w := world{g: gpusPerNode}
	for s := 0; s < p-1 && n > 0; s++ {
		src, dst := (root+s)%p, (root+s+1)%p
		copy(data[dst], data[src])
		st.add(w.sameNode(src, dst), n)
	}
	return st, nil
}
