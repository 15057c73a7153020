package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// leakCheck returns a func that asserts the goroutine count settled back
// to its starting value — the satellite goroutine-leak coverage for the
// error, cancellation and deadline paths.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := goruntime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if goruntime.NumGoroutine() <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("goroutine leak: %d before, %d after", before, goruntime.NumGoroutine())
	}
}

// TestExecuteJoinsAllErrors: errors from independent streams are all
// collected (satellite 1 — the old executor kept only the first).
func TestExecuteJoinsAllErrors(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	errA := errors.New("stream a broke")
	errB := errors.New("stream b broke")
	p.Add("A", sim.KindPack, "s1", 1, func() error { return errA })
	p.Add("B", sim.KindPack, "s2", 1, func() error { return errB })
	p.Add("C", sim.KindPack, "s3", 1, nil)
	_, err := p.Execute()
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error lost a stream failure: %v", err)
	}
}

// TestRetryTransient: a transient injected fault with prob 1 and cap 1
// fails every task's first attempt; one retry each completes the plan
// cleanly with the retries on the trace.
func TestRetryTransient(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	runs := make([]int32, 4)
	for i := 0; i < 4; i++ {
		i := i
		p.Add(fmt.Sprintf("T%d", i), "AlltoAll", fmt.Sprintf("s%d", i%2), 1, func() error {
			atomic.AddInt32(&runs[i], 1)
			return nil
		})
	}
	p.SetFaultPlan(fault.New(fault.Spec{Seed: 1, TransientProb: 1, MaxTransientsPerTask: 1}))
	p.SetRetry(RetryPolicy{MaxAttempts: 3})
	tr, err := p.Execute()
	if err != nil {
		t.Fatalf("retried plan failed: %v", err)
	}
	for i, n := range runs {
		if n != 1 {
			t.Fatalf("task %d body ran %d times (fault fires before the body; retry runs it once)", i, n)
		}
	}
	if got := tr.EventCount(sim.EventRetry); got != 4 {
		t.Fatalf("trace records %d retries, want 4", got)
	}
	if got := tr.EventCount(sim.EventFault); got != 4 {
		t.Fatalf("trace records %d faults, want 4", got)
	}
}

// TestRetryBudgetExhausted: uncapped transient injection at prob 1 burns
// the whole retry budget and fails with the attempt count attached.
func TestRetryBudgetExhausted(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	p.Add("T", "AlltoAll", "s", 1, nil)
	p.SetFaultPlan(fault.New(fault.Spec{Seed: 2, TransientProb: 1}))
	p.SetRetry(RetryPolicy{MaxAttempts: 3})
	tr, err := p.Execute()
	if !fault.IsTransient(err) {
		t.Fatalf("want transient failure after budget, got %v", err)
	}
	if got := tr.EventCount(sim.EventFault); got != 3 {
		t.Fatalf("%d faults recorded, want 3 (one per attempt)", got)
	}
	if got := tr.EventCount(sim.EventRetry); got != 2 {
		t.Fatalf("%d retries recorded, want 2", got)
	}
}

// TestRetryKindFilter: the policy retries only listed kinds.
func TestRetryKindFilter(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	p.Add("E", "Experts", "s", 1, nil)
	p.SetFaultPlan(fault.New(fault.Spec{Seed: 3, TransientProb: 1, MaxTransientsPerTask: 1}))
	p.SetRetry(RetryPolicy{MaxAttempts: 3, Kinds: []string{"AlltoAll"}})
	if _, err := p.Execute(); !fault.IsTransient(err) {
		t.Fatalf("unlisted kind was retried: %v", err)
	}
}

// TestRealErrorsNeverRetried: only injected transients are retried; an
// ordinary task error returns immediately even under a retry policy.
func TestRealErrorsNeverRetried(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	var runs int32
	boom := errors.New("real failure")
	p.Add("T", "AlltoAll", "s", 1, func() error {
		atomic.AddInt32(&runs, 1)
		return boom
	})
	p.SetRetry(RetryPolicy{MaxAttempts: 5})
	if _, err := p.Execute(); !errors.Is(err, boom) {
		t.Fatalf("real error lost: %v", err)
	}
	if runs != 1 {
		t.Fatalf("real error retried %d times", runs)
	}
}

// TestPermanentCancelsAndDrains: a permanent fault cancels the rest of the
// plan cooperatively — downstream tasks are skipped (recorded as skip
// events), every remaining task is still taken, and no goroutine leaks.
func TestPermanentCancelsAndDrains(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	var after int32
	gate := make(chan struct{})
	first := p.Add("E0[1]", "Experts", "compute:1", 1, func() error {
		<-gate
		return nil
	})
	p.Add("E1[1]", "Experts", "compute:1", 1, func() error {
		atomic.AddInt32(&after, 1)
		return nil
	}, first)
	boom := p.Add("X", "Experts", "compute:2", 1, nil)
	p.Add("Y", "Experts", "compute:2", 1, func() error {
		atomic.AddInt32(&after, 1)
		return nil
	}, boom)
	p.SetFaultPlan(fault.New(fault.Spec{Seed: 4, Down: &fault.Down{Rank: 2}}))
	// The permanent fault fires on compute:2 while compute:1 is parked on
	// the gate; releasing the gate after lets us observe that E1[1] —
	// dependent on a task that finished before cancellation reached it or
	// after — never runs once the stop is set, or runs if it slipped in
	// first. Either is legal; what must hold: plan returns, rank-2's Y is
	// skipped, and the error carries the permanent fault.
	close(gate)
	tr, err := p.Execute()
	if rank, ok := fault.PermanentRank(err); !ok || rank != 2 {
		t.Fatalf("permanent fault not surfaced: %v", err)
	}
	skipped := tr.EventCount(sim.EventSkip)
	if skipped < 1 {
		t.Fatalf("no tasks skipped after permanent fault (events: %+v)", tr.Events)
	}
	if len(tr.Intervals) != p.Len() {
		t.Fatalf("trace has %d intervals for %d tasks (streams must drain)", len(tr.Intervals), p.Len())
	}
}

// TestPlanStopsOneExecution: a resident plan's execution allocates nothing
// of its own — no context per execution — and a permanent fault stops only
// the execution it fires in: the next runs every task body, its straggler
// sleeps in full, and a fault in the one after stops that one again.
func TestPlanStopsOneExecution(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	var down atomic.Bool
	var ranB atomic.Int32
	a := p.Add("A", sim.KindPack, "s1", 1, func() error {
		if down.Load() {
			return fault.NewPermanent(1, "A", "rank down")
		}
		return nil
	})
	p.Add("B", sim.KindPack, "s2", 1, func() error {
		ranB.Add(1)
		return nil
	}, a)
	if _, err := p.ExecuteSequential(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { p.ExecuteSequential() }); allocs != 0 {
		t.Fatalf("an execution of a resident plan allocates %.0f times, want 0", allocs)
	}
	for run := range 3 {
		stop := run != 1
		down.Store(stop)
		p.SetFaultPlan(nil)
		if !stop {
			p.SetFaultPlan(fault.New(fault.Spec{Seed: 6, StragglerProb: 1, StragglerDelay: 2 * time.Millisecond}))
		}
		before := ranB.Load()
		tr, err := p.Execute()
		if fault.IsPermanent(err) != stop || (ranB.Load() == before) != stop {
			t.Fatalf("execution %d: err %v, B ran %d times; want it stopped: %t", run, err, ranB.Load()-before, stop)
		}
		if !stop && tr.EventCount(sim.EventStraggler) != 2 {
			t.Fatalf("execution %d: %d straggler sleeps, want 2", run, tr.EventCount(sim.EventStraggler))
		}
	}
}

// TestExecuteCtxCancel: external cancellation skips pending work, drains
// the streams, reports the ctx error, and leaks nothing — on a set made for
// the call, and on a set that outlives it, with a second stream so a helper
// is handed the cancelled plan; that set then runs every task of the next
// execution.
func TestExecuteCtxCancel(t *testing.T) {
	defer leakCheck(t)()
	set := NewWorkerSet(2)
	defer set.Close()
	for _, tc := range []struct {
		name    string
		set     *WorkerSet
		streams []string
	}{{"bare", nil, []string{"s"}}, {"set", set, []string{"s", "s2"}}} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlan()
			started := make(chan struct{})
			release := make(chan struct{})
			var slow, late int32
			first := p.Add("slow", sim.KindPack, "s", 1, func() error {
				if atomic.AddInt32(&slow, 1) == 1 {
					close(started)
					<-release
				}
				return nil
			})
			for _, stream := range tc.streams {
				p.Add("next", sim.KindPack, stream, 1, func() error {
					atomic.AddInt32(&late, 1)
					return nil
				}, first)
			}
			execute := func(ctx context.Context) (*sim.Trace, error) {
				if tc.set == nil {
					return p.ExecuteCtx(ctx)
				}
				return p.ExecuteOn(ctx, tc.set)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			var tr *sim.Trace
			var err error
			go func() {
				tr, err = execute(ctx)
				close(done)
			}()
			<-started
			cancel()
			// The in-flight closure finishes naturally; cancellation only stops
			// new task bodies from being issued.
			close(release)
			<-done
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("ctx error not joined: %v", err)
			}
			if late != 0 {
				t.Fatal("task issued after cancellation")
			}
			if got := tr.EventCount(sim.EventSkip); got != len(tc.streams) {
				t.Fatalf("want %d skip events, got %d", len(tc.streams), got)
			}
			if tc.set == nil {
				return
			}
			if tr, err = execute(context.Background()); err != nil {
				t.Fatalf("the execution after the cancelled one: %v", err)
			}
			if skips := tr.EventCount(sim.EventSkip); skips != 0 {
				t.Fatalf("the execution after the cancelled one skipped %d tasks", skips)
			}
			if slow != 2 || int(late) != len(tc.streams) {
				t.Fatalf("the execution after the cancelled one ran slow %d and next %d times, want 2 and %d", slow, late, len(tc.streams))
			}
		})
	}
}

// TestExecuteCtxDeadline: an expired deadline cancels the plan with
// context.DeadlineExceeded; straggler delays are interruptible, so no task
// outlives the deadline.
func TestExecuteCtxDeadline(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	p.Add("slow", "AlltoAll", "s", 1, func() error {
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	p.Add("tail", "AlltoAll", "s2", 1, nil)
	// A 10 s straggler delay on the second stream (seed 7 delays task 1,
	// not task 0): the deadline must cut it short instead of waiting it out.
	fp := fault.New(fault.Spec{Seed: 7, StragglerProb: 0.5, StragglerDelay: 10 * time.Second})
	if fp.Check("s", "AlltoAll", "slow", 0, 0).Delay != 0 || fp.Check("s2", "AlltoAll", "tail", 1, 0).Delay == 0 {
		t.Fatal("the seed no longer delays the tail task alone")
	}
	p.SetFaultPlan(fp)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.ExecuteCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline not surfaced: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not interrupt the straggler delay (took %v)", elapsed)
	}
}

// TestRetriesDoNotWait: a retry follows the failed attempt at once. One
// task fails its first 99 attempts; under a 100-attempt budget it completes
// inside a 200 ms deadline with 99 retries on the trace, where a wait of
// 2 ms before each retry would spend the whole deadline.
func TestRetriesDoNotWait(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	var runs int32
	p.Add("T", "AlltoAll", "s", 1, func() error {
		atomic.AddInt32(&runs, 1)
		return nil
	})
	p.SetFaultPlan(fault.New(fault.Spec{Seed: 1, TransientProb: 1, MaxTransientsPerTask: 99}))
	p.SetRetry(RetryPolicy{MaxAttempts: 100})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	tr, err := p.ExecuteCtx(ctx)
	if err != nil {
		t.Fatalf("99 retries did not complete inside the deadline (took %v): %v", time.Since(start), err)
	}
	if runs != 1 {
		t.Fatalf("task body ran %d times, want once", runs)
	}
	if got := tr.EventCount(sim.EventRetry); got != 99 {
		t.Fatalf("trace records %d retries, want 99", got)
	}
}

// TestSequentialCtxMatchesFaults: the sequential executor sees the same
// injected faults (decisions key on task ids) and the same retry
// semantics.
func TestSequentialCtxMatchesFaults(t *testing.T) {
	build := func() *Plan {
		p := NewPlan()
		for i := 0; i < 6; i++ {
			p.Add(fmt.Sprintf("T%d", i), "AlltoAll", fmt.Sprintf("s%d", i%3), 1, nil)
		}
		p.SetFaultPlan(fault.New(fault.Spec{Seed: 9, TransientProb: 0.8, MaxTransientsPerTask: 2}))
		p.SetRetry(RetryPolicy{MaxAttempts: 4})
		return p
	}
	trPar, err := build().Execute()
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	trSeq, err := build().ExecuteSequential()
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if trPar.EventCount(sim.EventFault) != trSeq.EventCount(sim.EventFault) {
		t.Fatalf("fault counts differ: parallel %d, sequential %d",
			trPar.EventCount(sim.EventFault), trSeq.EventCount(sim.EventFault))
	}
}

// TestSequentialIsOneWorker: ExecuteSequential starts the tasks in
// ascending id order, and at GOMAXPROCS=1 ExecuteCtx is the same k = 1
// executor, so on TestSequentialCtxMatchesFaults' plan both start the same
// tasks in the same order and record the same fault and retry events.
func TestSequentialIsOneWorker(t *testing.T) {
	withProcs(t, 1)
	run := func(exec func(*Plan) (*sim.Trace, error)) ([]int, []sim.Event) {
		p := NewPlan()
		var started []int
		for i := 0; i < 6; i++ {
			p.Add(fmt.Sprintf("T%d", i), "AlltoAll", fmt.Sprintf("s%d", i%3), 1, func() error {
				started = append(started, i)
				return nil
			})
		}
		p.SetFaultPlan(fault.New(fault.Spec{Seed: 9, TransientProb: 0.8, MaxTransientsPerTask: 2}))
		p.SetRetry(RetryPolicy{MaxAttempts: 4})
		tr, err := exec(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Events {
			tr.Events[i].AtMS = 0
		}
		return started, tr.Events
	}
	seqStarted, seqEvents := run((*Plan).ExecuteSequential)
	for i, id := range seqStarted {
		if id != i {
			t.Fatalf("sequential start order %v, want ascending ids", seqStarted)
		}
	}
	if len(seqStarted) != 6 || len(seqEvents) == 0 {
		t.Fatalf("sequential run started %v and recorded %d events; the plan must start 6 tasks and fault", seqStarted, len(seqEvents))
	}
	parStarted, parEvents := run((*Plan).Execute)
	if fmt.Sprint(parStarted) != fmt.Sprint(seqStarted) {
		t.Fatalf("start order at k = 1: Execute %v, ExecuteSequential %v", parStarted, seqStarted)
	}
	if fmt.Sprint(parEvents) != fmt.Sprint(seqEvents) {
		t.Fatalf("events at k = 1 differ:\nExecute           %+v\nExecuteSequential %+v", parEvents, seqEvents)
	}
}

// TestStragglerDelays: straggler injection stalls the task and records the
// event without failing anything.
func TestStragglerDelays(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	p.Add("T", sim.KindPack, "s", 1, nil)
	p.SetFaultPlan(fault.New(fault.Spec{Seed: 6, StragglerProb: 1, StragglerDelay: 5 * time.Millisecond}))
	start := time.Now()
	tr, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("straggler delay not applied")
	}
	if tr.EventCount(sim.EventStraggler) != 1 {
		t.Fatalf("straggler not recorded: %+v", tr.Events)
	}
}

// TestZeroFaultPathUnchanged: with no injector and a background ctx the
// executor behaves exactly as before — no events, full resources report,
// bitwise-identical task effects.
func TestZeroFaultPathUnchanged(t *testing.T) {
	defer leakCheck(t)()
	p := NewPlan()
	sum := 0
	a := p.Add("A", sim.KindPack, "s1", 1, func() error { sum += 1; return nil })
	p.Add("B", sim.KindPack, "s1", 1, func() error { sum += 2; return nil }, a)
	tr, err := p.Execute()
	if err != nil || sum != 3 {
		t.Fatalf("err=%v sum=%d", err, sum)
	}
	if len(tr.Events) != 0 {
		t.Fatalf("fault-free run recorded events: %+v", tr.Events)
	}
}
