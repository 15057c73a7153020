package tensor

import "fmt"

// matmulParallelThreshold is the FLOP count above which the GEMM kernels
// shard rows across the shared worker pool (pool.go). Below it, scheduling
// costs more than it saves.
const matmulParallelThreshold = 1 << 18

// MatMul returns a @ b for 2-D tensors with shapes (m,k) and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	out := New(mmShape(a, b, "MatMul"), b.shape[1])
	defaultPool.matmulInto(out.data, a.data, b.data, a.shape[0], a.shape[1], b.shape[1])
	return out
}

// MatMulInto computes dst = a @ b, overwriting dst, which must be (m,n).
// With a pooled dst (GetUninit) this is the allocation-free GEMM the hot
// path uses. Rows shard over the default pool; see Pool.MatMulInto for the
// scoped variant.
func MatMulInto(dst, a, b *Tensor) { defaultPool.MatMulInto(dst, a, b) }

// MatMulInto computes dst = a @ b with the row sharding bound to p's
// worker budget instead of the default pool — the GEMM entry point for
// code running on a scoped compute stream. A nil receiver uses the default
// pool. Results are bit-identical at any width.
func (p *Pool) MatMulInto(dst, a, b *Tensor) {
	m := mmShape(a, b, "MatMulInto")
	checkDst(dst, m, b.shape[1], "MatMulInto")
	p.MatMulRowsInto(dst, 0, a, 0, m, b)
}

// MatMulRowsInto computes rows [dlo, dlo+rows) of dst as rows
// [alo, alo+rows) of a times b: the row-range form of MatMulInto, for
// callers that walk a block window by window and would otherwise slice a
// view per operand per window. dst is (·, n) for a (·, k) and b (k, n).
func (p *Pool) MatMulRowsInto(dst *Tensor, dlo int, a *Tensor, alo, rows int, b *Tensor) {
	mmShape(a, b, "MatMulRowsInto")
	k, n := a.shape[1], b.shape[1]
	checkRows(dst, dlo, a, alo, rows, n, "MatMulRowsInto")
	p.self().matmulInto(dst.data[dlo*n:(dlo+rows)*n], a.data[alo*k:(alo+rows)*k], b.data, rows, k, n)
}

// mmShape validates a 2-D pair with matching inner dimension and returns m.
func mmShape(a, b *Tensor, op string) int {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: " + op + " requires 2-D tensors")
	}
	if a.shape[1] != b.shape[0] {
		panic("tensor: " + op + " inner dimension mismatch")
	}
	return a.shape[0]
}

func checkDst(dst *Tensor, m, n int, op string) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: " + op + " destination shape mismatch")
	}
}

// checkRows validates a row-range product: dst is 2-D of width n and both
// row windows lie inside their tensors.
func checkRows(dst *Tensor, dlo int, a *Tensor, alo, rows, n int, op string) {
	if dst.Rank() != 2 || dst.shape[1] != n {
		panic("tensor: " + op + " destination shape mismatch")
	}
	if rows < 0 || dlo < 0 || dlo+rows > dst.shape[0] || alo < 0 || alo+rows > a.shape[0] {
		panic(fmt.Sprintf("tensor: %s rows [%d,+%d) of %v from rows [%d,+%d) of %v out of range", op, dlo, rows, dst.shape, alo, rows, a.shape))
	}
}

// matmulInto computes dst = A @ B where A is (m,k), B is (k,n), all
// row-major. Rows of dst are sharded over the pool; each output element is
// accumulated entirely by one goroutine in a fixed order, so the result is
// identical at any parallel width.
func (p *Pool) matmulInto(dst, a, b []float64, m, k, n int) {
	// The Workers()==1 check precedes the closure so the single-threaded
	// path stays allocation-free.
	if m*k*n < matmulParallelThreshold || m == 1 || p.Workers() == 1 {
		matmulRows(dst, a, b, 0, m, k, n)
		return
	}
	p.ParallelRange(m, func(lo, hi int) {
		matmulRows(dst, a, b, lo, hi, k, n)
	})
}

// matmulRows is the register-blocked i-k-j kernel: the k-loop is unrolled
// 4× so each pass streams four rows of B against four scalars of A held in
// registers, quartering the traffic on dst.
func matmulRows(dst, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		di := dst[i*n : (i+1)*n : (i+1)*n]
		for j := range di {
			di[j] = 0
		}
		ai := a[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b[p*n : p*n+n : p*n+n]
			b1 := b[(p+1)*n : (p+1)*n+n : (p+1)*n+n]
			b2 := b[(p+2)*n : (p+2)*n+n : (p+2)*n+n]
			b3 := b[(p+3)*n : (p+3)*n+n : (p+3)*n+n]
			for j := range di {
				di[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n : (p+1)*n]
			for j, bv := range bp {
				di[j] += av * bv
			}
		}
	}
}

// MatMulT1 returns aᵀ @ b where a is (k,m) and b is (k,n); the result is
// (m,n). This is the shape needed for weight gradients (xᵀ @ dy) without
// materializing the transpose.
func MatMulT1(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT1 requires 2-D tensors")
	}
	out := New(a.shape[1], b.shape[1])
	MatMulT1Into(out, a, b)
	return out
}

// MatMulT1Into computes dst = aᵀ @ b with the pool convention of
// Pool.MatMulInto. The kernel itself is inherently sequential (every rank-1
// update touches all of dst), so the pool only documents intent; it exists
// so a stream's GEMM calls are uniformly pool-bound.
func (p *Pool) MatMulT1Into(dst, a, b *Tensor) { MatMulT1Into(dst, a, b) }

// MatMulT1AddInto computes dst += aᵀ @ b with the pool convention of
// Pool.MatMulT1Into.
func (p *Pool) MatMulT1AddInto(dst, a, b *Tensor) { MatMulT1AddInto(dst, a, b) }

// MatMulT1Into computes dst = aᵀ @ b, overwriting dst, which must be (m,n)
// for a (k,m) and b (k,n).
func MatMulT1Into(dst, a, b *Tensor) {
	clear(dst.data)
	MatMulT1AddInto(dst, a, b)
}

// MatMulT1AddInto computes dst += aᵀ @ b: the rank-1 updates of
// MatMulT1Into applied, in the same order, to what dst already holds. A
// row-blocked product may therefore be accumulated block by block —
// MatMulT1Into on the first block of rows of a and b, MatMulT1AddInto on the
// rest — with the bits of the one-call product.
func MatMulT1AddInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT1Into requires 2-D tensors")
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic("tensor: MatMulT1Into inner dimension mismatch")
	}
	checkDst(dst, m, n, "MatMulT1Into")
	// dst[i,j] += sum_p a[p,i]*b[p,j]: accumulate rank-1 updates row by row.
	// Rows of dst cannot be sharded without also sharding the p-loop (every
	// update touches all of dst), so this kernel stays sequential; callers
	// parallelize across experts/heads instead.
	for p := 0; p < k; p++ {
		ap := a.data[p*m : (p+1)*m]
		bp := b.data[p*n : (p+1)*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			di := dst.data[i*n : (i+1)*n : (i+1)*n]
			for j, bv := range bp {
				di[j] += av * bv
			}
		}
	}
}

// MatMulT2 returns a @ bᵀ where a is (m,k) and b is (n,k); the result is
// (m,n). This is the shape needed for input gradients (dy @ Wᵀ) without
// materializing the transpose.
func MatMulT2(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2 requires 2-D tensors")
	}
	out := New(a.shape[0], b.shape[0])
	MatMulT2Into(out, a, b)
	return out
}

// MatMulT2Into computes dst = a @ bᵀ, overwriting dst, which must be (m,n)
// for a (m,k) and b (n,k). Rows shard over the default pool; see
// Pool.MatMulT2Into for the scoped variant.
func MatMulT2Into(dst, a, b *Tensor) { defaultPool.MatMulT2Into(dst, a, b) }

// MatMulT2Into computes dst = a @ bᵀ with the row sharding bound to p's
// worker budget (nil = default pool). Both operands stream row-major, so
// the inner loops are pure dot products; they are blocked four-wide over
// rows of b to reuse each load of a's row.
func (p *Pool) MatMulT2Into(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2Into requires 2-D tensors")
	}
	checkDst(dst, a.shape[0], b.shape[0], "MatMulT2Into")
	p.MatMulT2RowsInto(dst, 0, a, 0, a.shape[0], b, 0, b.shape[0])
}

// MatMulT2RowsInto computes rows [dlo, dlo+rows) of dst as rows
// [alo, alo+rows) of a times the transpose of rows [blo, bhi) of b: the
// row-range form of MatMulT2Into (see MatMulRowsInto). dst is (·, bhi−blo)
// for a (·, k) and b (·, k).
func (p *Pool) MatMulT2RowsInto(dst *Tensor, dlo int, a *Tensor, alo, rows int, b *Tensor, blo, bhi int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2RowsInto requires 2-D tensors")
	}
	p = p.self()
	k, n := a.shape[1], bhi-blo
	if k != b.shape[1] {
		panic("tensor: MatMulT2RowsInto inner dimension mismatch")
	}
	if blo < 0 || n < 0 || bhi > b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulT2RowsInto rows [%d,%d) of b %v out of range", blo, bhi, b.shape))
	}
	checkRows(dst, dlo, a, alo, rows, n, "MatMulT2RowsInto")
	dd, ad, bd := dst.data[dlo*n:(dlo+rows)*n], a.data[alo*k:(alo+rows)*k], b.data[blo*k:bhi*k]
	if rows*k*n < matmulParallelThreshold || rows == 1 || p.Workers() == 1 {
		matmulT2Rows(dd, ad, bd, 0, rows, k, n)
		return
	}
	p.ParallelRange(rows, func(lo, hi int) {
		matmulT2Rows(dd, ad, bd, lo, hi, k, n)
	})
}

// matmulT2Rows computes rows [lo, hi) of dst = a @ bᵀ. The j-loop is
// blocked four-wide: four dot products share each streamed load of a's row,
// and each dot accumulates over p in a fixed order (so results don't depend
// on the blocking).
func matmulT2Rows(dst, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k : (i+1)*k]
		di := dst[i*n : (i+1)*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := b[j*k : (j+1)*k : (j+1)*k]
			s := 0.0
			for p, av := range ai {
				s += av * bj[p]
			}
			di[j] = s
		}
	}
}

// Transpose2D returns the transpose of a 2-D tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose2D requires a 2-D tensor")
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// BatchedMatMul multiplies two 3-D tensors batch-wise: (b,m,k)@(b,k,n) →
// (b,m,n). Batches shard over the shared worker pool when the total work
// clears the parallel threshold; small batched products run sequentially
// instead of paying one goroutine per batch.
func BatchedMatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 3 || b.Rank() != 3 {
		panic("tensor: BatchedMatMul requires 3-D tensors")
	}
	bs, m, k := a.shape[0], a.shape[1], a.shape[2]
	bs2, k2, n := b.shape[0], b.shape[1], b.shape[2]
	if bs != bs2 || k != k2 {
		panic("tensor: BatchedMatMul shape mismatch")
	}
	out := New(bs, m, n)
	if bs*m*k*n < matmulParallelThreshold || Workers() == 1 {
		for i := 0; i < bs; i++ {
			matmulRows(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], 0, m, k, n)
		}
		return out
	}
	if bs <= serialCutoff {
		// Too few batches to fan out over; recover the parallelism inside
		// each product instead (row sharding), which the per-batch leaf
		// kernel above deliberately skips.
		for i := 0; i < bs; i++ {
			defaultPool.matmulInto(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], m, k, n)
		}
		return out
	}
	ParallelFor(bs, func(i int) {
		matmulRows(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], 0, m, k, n)
	})
	return out
}
