package tensor

// BenchmarkParallelRangeTiny is the measurement behind serialCutoff: it
// compares the serial loop against the pool fan-out for tiny index spaces
// at two per-item weights. The "fanout" rows bypass the cutoff by calling
// the sharding machinery directly, so the crossover stays visible even
// after the fast path exists. On the machines this was tuned on, fan-out
// at n=2 costs ~0.3–0.5µs over the serial loop — more than light items do
// in total — while from n=4 upward medium items start winning. Heavy items
// at n≤2 lose nothing to the serial path because the kernels they call
// shard their own rows (the MatMul* kernels' row sharding).

import (
	"fmt"
	"runtime"
	"testing"
)

// fanoutRange is ParallelRange without the serial cutoff: the benchmark
// baseline that shows what tiny index spaces used to pay.
func fanoutRange(n int, fn func(lo, hi int)) {
	p := &defaultPool
	w := min(p.Workers(), n)
	if w <= 1 {
		fn(0, n)
		return
	}
	p.startWorkers()
	size := (n + w - 1) / w
	j := p.takeJob(body{fn: fn})
	for lo := size; lo < n; lo += size {
		j.wg.Add(1)
		p.submit(chunk{j: j, lo: lo, hi: min(lo+size, n)})
	}
	fn(0, size)
	p.helpWait(&j.wg)
	p.dropJob(j)
}

func BenchmarkParallelRangeTiny(b *testing.B) {
	// Pin the width so the fan-out rows exercise real chunk submission even
	// when GOMAXPROCS is small (the point is the scheduling overhead, which
	// a width-1 fallback would hide).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	work := func(iters int) func(lo, hi int) {
		return func(lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				for j := 0; j < iters; j++ {
					s += float64(j ^ i)
				}
			}
			sink = s
		}
	}
	for _, n := range []int{2, 4, 8} {
		for _, item := range []struct {
			name  string
			iters int
		}{{"light100", 100}, {"medium5k", 5000}} {
			b.Run(fmt.Sprintf("n=%d/%s/serial", n, item.name), func(b *testing.B) {
				fn := work(item.iters)
				for i := 0; i < b.N; i++ {
					fn(0, n)
				}
			})
			b.Run(fmt.Sprintf("n=%d/%s/fanout", n, item.name), func(b *testing.B) {
				fn := work(item.iters)
				for i := 0; i < b.N; i++ {
					fanoutRange(n, fn)
				}
			})
		}
	}
}

// sink defeats dead-code elimination in the benchmark loops.
var sink float64
