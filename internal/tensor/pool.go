package tensor

// This file is the shared compute-and-memory runtime behind the real tensor
// path: worker pools that every parallel kernel (the MatMul* GEMMs, the
// expert stages in internal/moe) shards work onto, and a size-bucketed
// free-list of tensor buffers that eliminates per-op allocations on the hot
// path.
//
// Worker pools
//
// There are two kinds of pool. The process-wide default pool backs the
// package-level ParallelFor/ParallelRange and the plain MatMul* kernels; its
// width follows Workers(). Scoped pools (NewPool) carve a fixed worker
// budget out of the machine: a World's one kernel pool is ⌊GOMAXPROCS/k⌋
// wide, so the k workers of its plan executor (internal/runtime's
// WorkerSet: an execution's caller and k − 1 helpers that outlive it), each
// inside a kernel at once, never oversubscribe the machine. The executor
// keeps its own workers rather than these: a pool runs regions of
// serialCutoff items on the caller, and a waiting caller runs whatever is
// queued, so plan work here could stay on one goroutine at k = 2 or start
// inside a kernel. Pool-bound kernels are methods on *Pool; a nil *Pool
// designates the default pool, so call sites can thread an optional pool
// without branching.
//
// ParallelFor and ParallelRange split an index space into at most Workers()
// contiguous chunks. Chunk boundaries never split a single output element's
// accumulation across goroutines, so a kernel that partitions rows this way
// produces bit-identical results whether it runs on one worker or many.
// Submission is non-blocking: when the queue is full (including when a
// worker itself calls ParallelFor, which nested kernels do), the chunk runs
// inline on the caller, so nesting can never deadlock. Index spaces of at
// most serialCutoff items run serially on the caller: at that size the
// fan-out costs more than it can save even for moderately sized items, and
// heavy items regain their parallelism through the nested kernels they call
// (see BenchmarkParallelRangeTiny for the measurement behind the cutoff).
//
// Buffer free-list
//
// Get/GetUninit hand out tensors whose backing arrays are recycled through
// one free-list, shared by every goroutine: mutex-guarded size classes of
// powers of two; Put returns them. A buffer Put on one goroutine is the next
// Get of its class on any other, and the collector never empties the list:
// it keeps, in each class, as many buffers as were ever out at once, plus
// ReserveScratch's reserve (matmul.go), and hands none back to the
// collector. An empty class hands out a buffer of the next larger class that
// holds one, which goes back to its own class on Put. The GEMM row forms
// take their scratch from the same list. Ownership rules (violations
// corrupt unrelated tensors, so they are strict):
//
//   - Only the holder of a tensor obtained from Get/GetUninit may Put it,
//     and at most once. Put on a tensor from New/FromData or on any view is
//     a safe no-op: neither is pool-owned, so a view's parent never reaches
//     the free-list through it.
//   - A tensor must not be Put while any view of it (View/Slice/Reshape/Row)
//     is still reachable: views alias the backing array, and Put hands that
//     array to the next Get.
//   - GetUninit returns garbage contents; use it only for destinations that
//     are fully overwritten (e.g. MatMulInto).

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the parallel width kernels shard to on the default pool:
// GOMAXPROCS, read on every call.
func Workers() int { return runtime.GOMAXPROCS(0) }

const maxPoolGoroutines = 32

// serialCutoff is the index-space size at or below which ParallelRange and
// ParallelFor run serially on the caller instead of fanning out. Measured
// by BenchmarkParallelRangeTiny: at n=2 the fan-out (one queued chunk, a
// WaitGroup hand-off and the helper drain) costs ~0.7µs over the free
// serial loop, several times the total of light items; from n=4 upward
// medium-weight items amortize the overhead, so the cutoff stops there.
// Heavy per-item work loses nothing at n≤2 because the kernels it calls
// (MatMulInto and friends) shard their own rows across the pool.
const serialCutoff = 2

// Pool is a worker pool kernels shard onto. The zero value is not usable;
// use NewPool for a scoped pool or a nil *Pool for the process default.
// A scoped pool caps the parallel width of every kernel bound to it at its
// fixed budget, independent of Workers() — the resource-partitioning lever
// that keeps concurrent compute streams from oversubscribing one queue.
type Pool struct {
	width  int // fixed parallel width; 0 = the default pool (tracks Workers())
	start  sync.Once
	queue  chan chunk
	closed atomic.Bool

	// jobs is the free-list of region records: a parallel region takes one
	// for its duration and hands it back, so a warm region allocates nothing.
	jobsMu sync.Mutex
	jobs   []*job
}

// body is what a parallel region runs over each chunk: a range function, a
// per-index one that ParallelFor runs over each index of the chunk, or, with
// neither, a product's tile rows (gemmRows, matmul.go), which travel as a
// value, so a product hands the pool no closure to allocate.
type body struct {
	fn   func(lo, hi int)
	each func(i int)
	mm   gemmRows
}

// run runs the body over indices [lo, hi).
func (b *body) run(lo, hi int) {
	switch {
	case b.fn != nil:
		b.fn(lo, hi)
	case b.each != nil:
		for i := lo; i < hi; i++ {
			b.each(i)
		}
	default:
		b.mm.tiles(lo, hi)
	}
}

// job is one parallel region: its body and the count of its chunks still
// running.
type job struct {
	body
	wg sync.WaitGroup
}

// chunk is one queued piece of a region: indices [lo, hi) of job j.
type chunk struct {
	j      *job
	lo, hi int
}

// run runs the chunk's indices.
func (c chunk) run() { c.j.run(c.lo, c.hi) }

// takeJob returns a region record for b, from the free-list when it has one.
func (p *Pool) takeJob(b body) *job {
	p.jobsMu.Lock()
	var j *job
	if k := len(p.jobs); k > 0 {
		j, p.jobs = p.jobs[k-1], p.jobs[:k-1]
	}
	p.jobsMu.Unlock()
	if j == nil {
		j = &job{}
	}
	j.body = b
	return j
}

// dropJob hands a finished region's record back.
func (p *Pool) dropJob(j *job) {
	j.body = body{}
	p.jobsMu.Lock()
	p.jobs = append(p.jobs, j)
	p.jobsMu.Unlock()
}

// defaultPool backs the package-level functions and nil *Pool methods.
var defaultPool Pool

// NewPool returns a scoped pool with a fixed parallel width of n (clamped
// to at least 1). Its worker goroutines start lazily on first parallel use;
// a pool of width 1 never starts any. Call Close when the pool is no longer
// needed to release them.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{width: n}
}

// self resolves the nil-receiver convention: a nil *Pool is the default
// pool.
func (p *Pool) self() *Pool {
	if p == nil {
		return &defaultPool
	}
	return p
}

// Workers returns the pool's parallel width.
func (p *Pool) Workers() int {
	p = p.self()
	if p.width > 0 {
		return p.width
	}
	return Workers()
}

// startWorkers launches the pool's goroutines once. The caller of a
// parallel region always executes chunks itself, so width-1 extra
// goroutines realize a parallel width of width.
func (p *Pool) startWorkers() {
	p.start.Do(func() {
		n := p.width - 1
		if p.width == 0 { // default pool: size to the machine
			n = runtime.GOMAXPROCS(0)
			if n < 4 {
				n = 4
			}
		}
		if n > maxPoolGoroutines {
			n = maxPoolGoroutines
		}
		if n < 1 {
			n = 1
		}
		p.queue = make(chan chunk, 4*maxPoolGoroutines)
		for i := 0; i < n; i++ {
			go func() {
				for c := range p.queue {
					c.run()
					c.j.wg.Done()
				}
			}()
		}
	})
}

// Close releases a scoped pool's worker goroutines. The pool must be idle:
// no parallel region may be running or started afterwards (later parallel
// calls degrade to inline execution rather than crash, but that is a
// misuse, not a feature). Close on the default pool panics.
func (p *Pool) Close() {
	if p == nil || p.width == 0 {
		panic("tensor: Close on the default pool")
	}
	if p.closed.CompareAndSwap(false, true) {
		// Start-then-close handles the never-used pool without tracking
		// extra state; the goroutines exit immediately.
		p.startWorkers()
		close(p.queue)
	}
}

// submit hands a chunk to a pool worker, or runs it inline when the queue
// is full (or the pool was closed). Inline fallback keeps nested
// ParallelFor calls deadlock-free.
func (p *Pool) submit(c chunk) {
	if !p.closed.Load() {
		select {
		case p.queue <- c:
			return
		default:
		}
	}
	c.run()
	c.j.wg.Done()
}

// ParallelRange splits [0, n) into at most p.Workers() contiguous chunks
// and runs fn(lo, hi) on each, returning when all complete. The caller
// executes the first chunk itself, then helps drain the work queue until
// its chunks finish — so even if every pool worker is itself blocked in a
// nested ParallelRange, queued tasks always have someone running them and
// nesting can never deadlock, regardless of how the width compares to the
// pool's goroutine count. The region's record comes from the pool's
// free-list and the chunks travel by value, so a warm call allocates
// nothing.
func (p *Pool) ParallelRange(n int, fn func(lo, hi int)) { p.parallel(n, body{fn: fn}) }

// ParallelFor runs fn(i) for every i in [0, n), sharding the index space
// over the pool. Iterations must be independent: they may run concurrently
// and in any order across chunks.
func (p *Pool) ParallelFor(n int, fn func(i int)) { p.parallel(n, body{each: fn}) }

// parallel splits [0, n) over the pool and runs b on each chunk.
func (p *Pool) parallel(n int, b body) {
	p = p.self()
	w := min(p.Workers(), n)
	if n <= serialCutoff || w <= 1 {
		if n > 0 {
			b.run(0, n)
		}
		return
	}
	p.startWorkers()
	size := (n + w - 1) / w
	j := p.takeJob(b)
	for lo := size; lo < n; lo += size {
		j.wg.Add(1)
		p.submit(chunk{j: j, lo: lo, hi: min(lo+size, n)})
	}
	chunk{j: j, lo: 0, hi: size}.run()
	p.helpWait(&j.wg)
	p.dropJob(j)
}

// helpWait drains the work queue until it is momentarily empty, then
// blocks on wg. Waiters doubling as workers is what makes nested parallel
// calls starvation-free: a region's chunks are all submitted before its
// waiter arrives here, so once the queue reads empty every remaining chunk
// is already running on some goroutine (whose own nested chunks that
// goroutine will likewise drain), and wg.Wait must terminate. Draining
// first costs no allocation and blocks the waiter behind at most the tasks
// it chose to execute.
func (p *Pool) helpWait(wg *sync.WaitGroup) {
	for {
		select {
		case c, ok := <-p.queue:
			if !ok {
				wg.Wait()
				return
			}
			c.run()
			c.j.wg.Done()
		default:
			wg.Wait()
			return
		}
	}
}

// ParallelRange splits [0, n) over the default pool; see Pool.ParallelRange.
func ParallelRange(n int, fn func(lo, hi int)) { defaultPool.ParallelRange(n, fn) }

// ParallelFor runs fn(i) for every i in [0, n) over the default pool; see
// Pool.ParallelFor.
func ParallelFor(n int, fn func(i int)) { defaultPool.ParallelFor(n, fn) }

// maxPoolBucket caps pooled buffers at 2^26 elements (512 MiB of float64);
// anything larger allocates directly and is never recycled.
const maxPoolBucket = 26

// free is the buffer free-list: class[b] holds idle tensors whose backing
// arrays have capacity exactly 2^b, the last Put on top; most is the largest
// class asked for so far, -1 before the first Get.
var free = struct {
	sync.Mutex
	class [maxPoolBucket + 1][]*Tensor
	most  int
}{most: -1}

// bucketFor returns the free-list class for n elements: the smallest b with
// 1<<b >= n.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// take returns an idle buffer of class b or, when b has none, of the
// smallest larger class that has one; nil when none has.
func take(b int) *Tensor {
	free.Lock()
	defer free.Unlock()
	free.most = max(free.most, b)
	for ; b <= free.most; b++ {
		if k := len(free.class[b]); k > 0 {
			t := free.class[b][k-1]
			free.class[b] = free.class[b][:k-1]
			return t
		}
	}
	return nil
}

// GetUninit returns a tensor of the given shape from the free-list without
// clearing it: the contents are whatever the previous owner left behind.
// Use only when every element will be overwritten.
func GetUninit(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in Get")
		}
		n *= d
	}
	b := bucketFor(n)
	if b > maxPoolBucket {
		// Too big to recycle; allocate directly (and never Put it back).
		// Built inline so the shape slice never escapes on the hot path.
		t := &Tensor{data: make([]float64, n)}
		t.setShape(shape)
		return t
	}
	t := take(b)
	if t == nil {
		t = &Tensor{data: make([]float64, 1<<b)}
	}
	t.data = t.data[:n]
	t.setShape(shape)
	t.poolable = true
	return t
}

// Get returns a zero-filled tensor of the given shape from the free-list.
func Get(shape ...int) *Tensor {
	t := GetUninit(shape...)
	clear(t.data)
	return t
}

// Put returns a tensor obtained from Get/GetUninit to the free-list. The
// caller must not retain t, its Data(), or any view of it afterwards — and
// must not Put the same tensor twice. Put is a no-op for tensors the pool
// does not own (New/FromData results, views), so releasing a tensor of
// unknown origin is safe, and a Put through a view never captures the
// parent's buffer. An erroneous second Put of a pooled tensor is only
// ignored until a Get re-issues the object, after which it would return
// someone else's live buffer. "At most once" is the rule, not a best-effort
// guard.
func Put(t *Tensor) {
	if t == nil || !t.poolable {
		return
	}
	t.poolable = false
	b := bits.Len(uint(cap(t.data))) - 1
	t.data = t.data[:cap(t.data)]
	t.shape = nil
	free.Lock()
	free.class[b] = append(free.class[b], t)
	free.Unlock()
}
