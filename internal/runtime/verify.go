package runtime

// Static plan verification. A Plan is built by strategy code at runtime,
// so a malformed schedule — a dependency on a task that does not exist, a
// cycle that would leave Execute's workers no ready head, a task kind the
// breakdown tables cannot aggregate — surfaces only when (and if) the
// broken path executes. Verify is the build-time twin: a pure structural
// check over the finished Plan that rejects every malformed shape with a
// named error before any closure runs. internal/moe wires it into World
// plan construction behind the SetVerifyPlans debug flag, and tests run
// every strategy's plans through it.

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Sentinel verification errors. Verify wraps each violation with position
// detail via fmt.Errorf("%w: ...") and joins all of them, so errors.Is
// reports every class of defect found.
var (
	// ErrDepOutOfRange: a task lists a dependency id that is negative, not
	// yet added at Add time, or beyond the task table.
	ErrDepOutOfRange = errors.New("plan verify: dependency out of range")
	// ErrDepCycle: the dependency edges plus the per-stream enqueue-order
	// edges admit no topological order — Execute would deadlock.
	ErrDepCycle = errors.New("plan verify: dependency cycle")
	// ErrStreamUndeclared: a task's stream is missing from the stream
	// table, or the stream's queue does not list the task.
	ErrStreamUndeclared = errors.New("plan verify: task stream undeclared")
	// ErrUnknownKind: a task kind outside the canonical sim vocabulary —
	// breakdowns, fault filters and retry allowlists key on exact strings.
	ErrUnknownKind = errors.New("plan verify: unknown task kind")
	// ErrNegativeEst: a negative modelled duration (Simulate would walk
	// time backwards).
	ErrNegativeEst = errors.New("plan verify: negative estimate")
)

// Verify checks the plan's structural invariants and returns every
// violation joined into one error (nil if the plan is well-formed):
//
//   - every dependency id names an earlier task (in range, no forward or
//     self references);
//   - the DAG of dependency edges plus per-stream enqueue-order edges is
//     acyclic;
//   - every task's stream is declared and queues the task;
//   - every task kind is canonical (sim.Kinds());
//   - every estimate is non-negative.
//
// Verify is read-only and may be called at any point after plan
// construction, including on executed plans.
func (p *Plan) Verify() error {
	var errs []error

	kinds := make(map[string]bool, len(sim.Kinds()))
	for _, k := range sim.Kinds() {
		kinds[k] = true
	}

	for _, t := range p.tasks {
		for _, d := range t.deps {
			if d < 0 || d >= len(p.tasks) || d >= t.id {
				errs = append(errs, fmt.Errorf("%w: task %d %q depends on %d (have %d tasks)",
					ErrDepOutOfRange, t.id, t.label, d, len(p.tasks)))
			}
		}
		ids, ok := p.streams[t.stream]
		declared := ok && containsID(ids, t.id)
		if !declared {
			errs = append(errs, fmt.Errorf("%w: task %d %q on stream %q",
				ErrStreamUndeclared, t.id, t.label, t.stream))
		}
		if !kinds[t.kind] {
			errs = append(errs, fmt.Errorf("%w: task %d %q has kind %q (canonical kinds: %v)",
				ErrUnknownKind, t.id, t.label, t.kind, sim.Kinds()))
		}
		if t.est < 0 {
			errs = append(errs, fmt.Errorf("%w: task %d %q est %v",
				ErrNegativeEst, t.id, t.label, t.est))
		}
	}

	if cyc := p.findCycle(); cyc != nil {
		errs = append(errs, fmt.Errorf("%w: tasks %v", ErrDepCycle, cyc))
	}

	return errors.Join(errs...)
}

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// findCycle runs a DFS over the execution edges — explicit dependencies
// plus the implicit predecessor edge within each stream's queue — and
// returns the task ids of one cycle, or nil. Out-of-range dependency edges
// are skipped here (reported separately by ErrDepOutOfRange).
func (p *Plan) findCycle() []int {
	n := len(p.tasks)
	edges := make([][]int, n) // edges[i] = tasks i waits on
	for _, t := range p.tasks {
		for _, d := range t.deps {
			if d >= 0 && d < n {
				edges[t.id] = append(edges[t.id], d)
			}
		}
	}
	for _, ids := range p.streams {
		for i := 1; i < len(ids); i++ {
			if ids[i] >= 0 && ids[i] < n && ids[i-1] >= 0 && ids[i-1] < n {
				edges[ids[i]] = append(edges[ids[i]], ids[i-1])
			}
		}
	}

	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]int, n)
	var stack []int
	var dfs func(v int) []int
	dfs = func(v int) []int {
		state[v] = inStack
		stack = append(stack, v)
		for _, w := range edges[v] {
			switch state[w] {
			case inStack:
				// Slice the current stack from w's position: that suffix is
				// the cycle.
				for i, u := range stack {
					if u == w {
						return append([]int(nil), stack[i:]...)
					}
				}
				return []int{w, v}
			case unvisited:
				if c := dfs(w); c != nil {
					return c
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[v] = done
		return nil
	}
	for v := 0; v < n; v++ {
		if state[v] == unvisited {
			if c := dfs(v); c != nil {
				return c
			}
		}
	}
	return nil
}
