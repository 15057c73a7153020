package tensor

import (
	"math"
	"sort"
)

// SoftmaxRows applies a numerically stable softmax along the last dimension
// of a 2-D tensor.
func SoftmaxRows(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: SoftmaxRows requires a 2-D tensor")
	}
	out := a.Clone()
	n := a.shape[1]
	for i := 0; i < a.shape[0]; i++ {
		row := out.data[i*n : (i+1)*n]
		softmaxInPlace(row)
	}
	return out
}

// SoftmaxCols applies softmax along the first dimension of a 2-D tensor
// (each column sums to 1). Expert-choice and SoftMoE routing normalize over
// tokens, which is a column softmax of the (token, expert) score matrix.
func SoftmaxCols(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: SoftmaxCols requires a 2-D tensor")
	}
	m, n := a.shape[0], a.shape[1]
	out := a.Clone()
	col := make([]float64, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			col[i] = out.data[i*n+j]
		}
		softmaxInPlace(col)
		for i := 0; i < m; i++ {
			out.data[i*n+j] = col[i]
		}
	}
	return out
}

// SoftmaxInPlace overwrites row with its numerically stable softmax — one
// row of SoftmaxRows, for callers holding a small vector in their own
// scratch.
func SoftmaxInPlace(row []float64) { softmaxInPlace(row) }

func softmaxInPlace(row []float64) {
	maxV := math.Inf(-1)
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	// A row of all -Inf (every entry masked out) softmaxes to all zeros
	// rather than NaN; KeepTopK produces such rows when k = 0.
	if math.IsInf(maxV, -1) {
		for i := range row {
			row[i] = 0
		}
		return
	}
	sum := 0.0
	for i, v := range row {
		e := exp(v - maxV)
		row[i] = e
		sum += e
	}
	for i := range row {
		row[i] /= sum
	}
}

// TopK returns the indices of the k largest values of v in descending value
// order. Ties break toward the lower index, matching a stable sort. It
// panics if k > len(v).
func TopK(v []float64, k int) []int {
	if k > len(v) {
		panic("tensor: TopK k exceeds length")
	}
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	return idx[:k]
}

// TopKInto writes the indices of the len(dst) largest values of v into dst:
// TopK(v, len(dst)) without its allocations, by insertion, for the small k of
// token-choice routing. It panics if len(dst) > len(v).
func TopKInto(dst []int, v []float64) {
	k := len(dst)
	if k > len(v) {
		panic("tensor: TopK k exceeds length")
	}
	n := 0 // dst[:n] holds the best so far, descending, earlier index first on ties
	for i, x := range v {
		j := n
		for j > 0 && v[dst[j-1]] < x {
			j--
		}
		if j == k {
			continue
		}
		if n < k {
			n++
		}
		copy(dst[j+1:n], dst[j:n-1])
		dst[j] = i
	}
}

// KeepTopK returns a copy of v with every entry outside the top k set to
// -Inf, matching the GShard formulation.
func KeepTopK(v []float64, k int) []float64 {
	out := make([]float64, len(v))
	for i := range out {
		out[i] = math.Inf(-1)
	}
	for _, i := range TopK(v, k) {
		out[i] = v[i]
	}
	return out
}

// ArgMax returns the index of the maximum value (lowest index wins ties).
func ArgMax(v []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, x := range v {
		if x > bestV {
			best, bestV = i, x
		}
	}
	return best
}

// L2NormalizeRows scales each row of a 2-D tensor to unit Euclidean norm.
// Zero rows are left as zeros.
func L2NormalizeRows(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: L2NormalizeRows requires a 2-D tensor")
	}
	out := a.Clone()
	n := a.shape[1]
	for i := 0; i < a.shape[0]; i++ {
		row := out.data[i*n : (i+1)*n]
		s := 0.0
		for _, v := range row {
			s += v * v
		}
		if s == 0 {
			continue
		}
		inv := 1 / math.Sqrt(s)
		for j := range row {
			row[j] *= inv
		}
	}
	return out
}

// CosineRows returns the (m,e) matrix of cosine similarities between each
// row of a (m,d) and each row of b (e,d). This is the X-MoE routing score
// s_i = cos(W_proj x, w_g_i).
func CosineRows(a, b *Tensor) *Tensor {
	an := L2NormalizeRows(a)
	bn := L2NormalizeRows(b)
	return MatMulT2(an, bn)
}

// OneHot returns an (n, classes) matrix with row i set to 1 at idx[i].
// Negative indices produce an all-zero row (used for dropped tokens).
func OneHot(idx []int, classes int) *Tensor {
	out := New(len(idx), classes)
	for i, c := range idx {
		if c < 0 {
			continue
		}
		out.data[i*classes+c] = 1
	}
	return out
}
