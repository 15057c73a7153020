package tensor

import "math"

// SoftmaxRowsInto writes into dst, a's shape, overwriting it, the
// numerically stable softmax of each row of the 2-D tensor a.
func SoftmaxRowsInto(dst, a *Tensor) {
	if a.Rank() != 2 {
		panic("tensor: SoftmaxRowsInto requires a 2-D tensor")
	}
	checkDst(dst, a.shape[0], a.shape[1], "SoftmaxRowsInto")
	copy(dst.data, a.data)
	n := a.shape[1]
	for i := 0; i < a.shape[0]; i++ {
		softmaxInPlace(dst.data[i*n : (i+1)*n])
	}
}

// SoftmaxInPlace overwrites row with its numerically stable softmax — one
// row of SoftmaxRowsInto, for callers holding a small vector in their own
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

// TopKInto writes the indices of the len(dst) largest values of v into dst,
// in descending value order, ties toward the lower index as a stable sort
// breaks them — by insertion, without allocating, for the small k of
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

// l2NormalizeRows scales each row of t, in place, to unit L2 norm (zero
// rows stay zero).
func l2NormalizeRows(t *Tensor) {
	if t.Rank() != 2 {
		panic("tensor: l2NormalizeRows requires a 2-D tensor")
	}
	n := t.shape[1]
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
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
}

// CosineRowsInto writes into dst (m, e), overwriting it, the cosine
// similarities between each row of a (m, d) and each row of b (e, d): the
// X-MoE routing score s_i = cos(W_proj x, w_g_i). The normalized rows go
// through pooled temporaries.
func CosineRowsInto(dst, a, b *Tensor) {
	an, bn := GetUninit(a.shape...), GetUninit(b.shape...)
	copy(an.data, a.data)
	copy(bn.data, b.data)
	l2NormalizeRows(an)
	l2NormalizeRows(bn)
	MatMulT2Into(dst, an, bn)
	Put(an)
	Put(bn)
}
