package sim

// This file is the canonical vocabulary of stream schedules: the task-kind
// strings that key every breakdown, cost model, fault-injection filter and
// retry allowlist, and the event-type strings measured traces record
// incidents under. Every other package (internal/core's simulated
// schedules, internal/moe's executable plans, internal/gradsync's
// AllReduce slices, internal/fault's triggers, internal/telemetry's trace
// exporter) aliases these constants instead of redeclaring the literals,
// so a trace produced anywhere aggregates identically everywhere.
//
// Task kinds (Task.Kind — the aggregation key of Breakdown and the
// Table 2 columns):
//
//	AlltoAll       dispatch/combine token exchange (EP, hybrid inter-group)
//	AllGather      ESP input/hidden gather stages (intra-node ring)
//	ReduceScatter  ESP output reduction (intra-node ring)
//	AllReduce      §5 Gradient-AllReduce slices (inter-node ring)
//	Experts        expert GEMMs (chunked, sharded or whole-block)
//	Pack           wire-layout (un)packing, the local Order work
//	Others         residual dense work in full-iteration models
//
// Event types (Event.Type — fault/recovery incidents on measured traces):
//
//	fault      an injected failure fired (transient or permanent)
//	retry      a transient failure is being retried after backoff
//	straggler  an injected delay stalled the task
//	skip       the task was skipped by cooperative cancellation

// Canonical task-kind strings.
const (
	KindAlltoAll      = "AlltoAll"
	KindAllGather     = "AllGather"
	KindReduceScatter = "ReduceScatter"
	KindAllReduce     = "AllReduce"
	KindExperts       = "Experts"
	KindPack          = "Pack"
	KindOthers        = "Others"
)

// KindBroadcast is the guard/retry kind of the recovery weight
// re-placement Broadcasts: what an injected collective failure in them is
// attributed to. Those broadcasts run outside any plan, so the kind never
// labels a plan task and is deliberately not one of Kinds().
const KindBroadcast = "Broadcast"

// Kinds returns the canonical task-kind strings in presentation order —
// the closed set exporters and breakdown tables iterate.
func Kinds() []string {
	return []string{KindAlltoAll, KindAllGather, KindReduceScatter, KindAllReduce, KindExperts, KindPack, KindOthers}
}

// Canonical event-type strings recorded on measured traces.
const (
	EventFault     = "fault"     // an injected failure fired (transient or permanent)
	EventRetry     = "retry"     // a transient failure is being retried after backoff
	EventStraggler = "straggler" // an injected delay stalled the task
	EventSkip      = "skip"      // the task was skipped by cooperative cancellation
)

// EventTypes returns the canonical event-type strings in presentation
// order.
func EventTypes() []string {
	return []string{EventFault, EventRetry, EventStraggler, EventSkip}
}
