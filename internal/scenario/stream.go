package scenario

import (
	"time"

	"vce/internal/metrics"
)

// StreamingIndexes is the per-run one-pass accumulator behind Indexes: every
// completion, rejection and queue-depth change folds in as it happens, so a
// run's index computation holds a fixed-size accumulator instead of
// per-task records — the property that lets an open-loop cell absorb
// millions of tasks in bounded memory.
//
// Determinism rules (the artifacts pin bytes, so these are contractual):
//
//   - Sums are exact and accumulate in event order, which is itself
//     deterministic in (spec, instance, run). Mean completion is the exact
//     sum over the exact count — deliberately not a Welford running mean,
//     whose different rounding would move artifact bytes.
//   - Quantiles come from a fixed-shape log-bucketed sketch
//     (metrics.QuantileSketch): counts-only state, so p50/p99 are invariant
//     to observation order and identical across worker counts, shards and
//     cache replays.
//   - Queue depth integrates as a piecewise-constant function of virtual
//     time (metrics.TimeWeighted). Wall-clock never enters the accumulator.
type StreamingIndexes struct {
	completed     int
	completionSum float64
	makespan      time.Duration
	slowdown      metrics.QuantileSketch
	queue         metrics.TimeWeighted
	queueMax      int
	rejected      int
}

// TaskDone folds in one completion at virtual instant `at` of a task that
// arrived at `arrival` with `work` units of total work. Slowdown is the
// response-time ratio against a dedicated speed-1.0 machine — work units
// are seconds at unit speed, so slowdown = (finish − arrival) / work.
func (a *StreamingIndexes) TaskDone(at, arrival time.Duration, work float64) {
	a.completed++
	a.completionSum += at.Seconds()
	if at > a.makespan {
		a.makespan = at
	}
	a.slowdown.Observe((at - arrival).Seconds() / work)
}

// TaskRejected folds in one rejection: a bounded-queue admission refusal,
// or a task that never arrived or was never placed inside the horizon.
func (a *StreamingIndexes) TaskRejected() { a.rejected++ }

// NoteQueueDepth records the settled waiting-queue depth at virtual instant
// now. Intermediate same-instant values are harmless for the integral
// (zero-width), but callers should report settled states so the max is the
// max of observable backlogs, not of transients inside one event.
func (a *StreamingIndexes) NoteQueueDepth(now time.Duration, depth int) {
	a.queue.Set(now, float64(depth))
	if depth > a.queueMax {
		a.queueMax = depth
	}
}

// Finalize writes the accumulator's indexes into idx. end is the run's last
// virtual instant; offered is how many tasks the spec offered (the
// reject-rate denominator). Utilization and the policy counters are owned
// by the engine, not the accumulator.
func (a *StreamingIndexes) Finalize(idx *Indexes, end time.Duration, offered int) {
	idx.Completed = a.completed
	idx.Rejected = a.rejected
	makespan := a.makespan
	if makespan == 0 {
		makespan = end
	}
	idx.MakespanS = makespan.Seconds()
	if end > 0 {
		idx.ThroughputPerH = float64(a.completed) / end.Hours()
	}
	if a.completed > 0 {
		idx.MeanCompletionS = a.completionSum / float64(a.completed)
		idx.SlowdownP50 = a.slowdown.Quantile(0.50)
		idx.SlowdownP99 = a.slowdown.Quantile(0.99)
	}
	idx.QueueDepthMean = a.queue.Average(end)
	idx.QueueDepthMax = float64(a.queueMax)
	if offered > 0 {
		idx.RejectRatePct = 100 * float64(a.rejected) / float64(offered)
	}
}
