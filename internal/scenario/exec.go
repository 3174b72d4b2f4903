package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vce/internal/obs"
)

// ProgressEvent is the per-run progress record delivered to
// Options.Progress: the completed run's position and indexes plus
// execution provenance — whether the run was replayed from the result
// cache or actually simulated, which the live log needs to tell a warm
// sweep from a cold one.
type ProgressEvent struct {
	Instance Instance
	Run      int
	Indexes  Indexes
	// Cached reports that the run's indexes came from Options.Cache; the
	// cell was not simulated.
	Cached bool
}

// Shard selects one slice of the (instance × run) grid for a multi-process
// sweep: shard i of N executes the grid positions whose flattened job index
// is congruent to i mod N. The round-robin split keeps shards balanced
// whatever the grid shape, every position lands in exactly one shard, and
// the assignment depends only on (spec, N), so independent processes — CI
// jobs, machines — agree on the partition without coordinating. Each shard
// produces a partial Report (survivor runs tagged with their true run
// numbers); MergeReports recombines them into the byte-identical
// single-process report.
type Shard struct {
	// Index is this shard's position in [0, Count).
	Index int
	// Count is the total number of shards. Zero means unsharded (the
	// whole grid); one is equivalent.
	Count int
}

// validate checks the shard coordinates.
func (s Shard) validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil
	}
	if s.Count < 1 {
		return fmt.Errorf("scenario: shard count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("scenario: shard index %d outside [0, %d)", s.Index, s.Count)
	}
	return nil
}

// Options configure a sweep execution.
type Options struct {
	// Workers is how many (instance, run) cells execute concurrently.
	// Zero or negative means runtime.GOMAXPROCS(0). The report is
	// byte-identical across worker counts: results are merged back in
	// cell/run order whatever order jobs finish in.
	Workers int
	// ContinueOnError keeps the sweep going when a cell run fails:
	// RunContext then returns the partial report (failed runs omitted from
	// their cell's Runs) together with the joined errors. The default is
	// fail-fast — the first error cancels the remaining jobs and is
	// returned with a nil report; with more than one worker that is the
	// error at the lowest cell/run position among the jobs that actually
	// ran, since cancellation may stop earlier grid positions from ever
	// starting.
	ContinueOnError bool
	// Progress observes completed runs (the CLI's live log); may be nil.
	// The executor serializes invocations — the callback never runs
	// concurrently with itself and needs no locking — but under more than
	// one worker the invocation order is completion order, not cell/run
	// order. Cached results report progress too — a warm sweep replays the
	// same callback sequence a cold one produces, with Cached set.
	Progress func(ProgressEvent)
	// Telemetry, when non-nil, records the sweep into the observability
	// recorder (internal/obs): one span per (instance, run) cell with
	// queue-wait / setup / simulate / measure attribution and kernel
	// counters, worker-lane occupancy, and sweep-level setup/execute/merge
	// spans. Wall-clock data lives only in the recorder's artifacts —
	// never in the Report — so telemetry cannot move goldens, cache keys
	// or any property the harness checks. Nil (the default) is the true
	// off-path: the executor reads no clocks and the kernel's stats hook
	// stays detached.
	Telemetry *obs.Recorder
	// Shard restricts execution to one slice of the grid. The zero value
	// runs everything.
	Shard Shard
	// Cache, when non-nil, is consulted per grid cell before simulating
	// (a hit replays the stored Indexes) and written through after a
	// successful simulation. Keyed by CellKey, so a cache survives across
	// processes, shards and machines; soundness rests on the determinism
	// contract and the EngineVersion stamp. Cache errors degrade to
	// recomputation — they never fail the sweep.
	Cache Store
	// Audit attaches the engine invariant auditor (sim.AttachAuditor) to
	// every run: virtual-time monotonicity, conservation of work and
	// per-task progress sanity are re-derived event by event, and any
	// violation fails that run with an *AuditError. The auditor observes
	// without perturbing, so a clean audited run yields the same indexes.
	// Audit disables Cache for the sweep — a cache hit skips exactly the
	// simulation the audit exists to watch.
	Audit bool
	// FreshWorlds disables the per-worker run arena: every cell builds its
	// world and simulation substrate from scratch instead of recycling the
	// previous cell's. The report is byte-identical either way (the
	// arena-reuse-identity property pins it); this switch exists for that
	// property's harness and for bisecting, not for production sweeps.
	FreshWorlds bool
}

// job and outcome are the executor's fan-out and fan-in records; cell and
// run index into the expansion-order instance and run-number grids.
// enqueued is the recorder-relative time the feeder handed the job off
// (zero when telemetry is off) — the worker subtracts it from its own
// start stamp to attribute queue wait.
type job struct {
	cell, run int
	enqueued  time.Duration
}

type outcome struct {
	cell, run int
	idx       Indexes
	err       error
	cached    bool
}

// RunContext executes the sweep under a context with explicit options: a
// worker pool fans the (instance × run) grid out as independent jobs — each
// builds a fully isolated simulation world from the spec's per-run derived
// random streams — and the results merge back into the Report in expansion
// order. For a fixed spec and seed the report is byte-identical regardless
// of worker count. Cancelling ctx halts in-flight simulations promptly;
// RunContext then returns ctx's error (joined with the partial report when
// ContinueOnError is set).
//
// Options.Shard restricts execution to one deterministic slice of the grid
// (see Shard; MergeReports recombines shard reports), and Options.Cache
// short-circuits cells whose result is already stored under their CellKey,
// which makes re-runs and interrupted sweeps resumable with zero duplicate
// simulation.
func RunContext(ctx context.Context, spec *Spec, opts Options) (*Report, error) {
	rec := opts.Telemetry
	var setupStart time.Duration
	if rec != nil {
		setupStart = rec.Elapsed()
	}
	sp := spec.withDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Shard.validate(); err != nil {
		return nil, err
	}
	insts := sp.Instances()
	// Jobs are enumerated run-major: every cell of run 0, then every cell of
	// run 1, and so on. Consecutive jobs on a worker then usually share a run
	// index, which is exactly what the per-worker arena's world cache wants —
	// the generated world of run k is derived once and replayed for each
	// matrix cell. The report is order-independent (fan-in is grid-indexed),
	// and the shard split keys on the flattened position, so the partition
	// stays deterministic in (spec, N) — it just slices a run-major flattening
	// now instead of a cell-major one.
	jobs := make([]job, 0, len(insts)*sp.Runs)
	pos := 0
	for run := 0; run < sp.Runs; run++ {
		for cell := range insts {
			if opts.Shard.Count > 1 && pos%opts.Shard.Count != opts.Shard.Index {
				pos++
				continue
			}
			pos++
			jobs = append(jobs, job{cell: cell, run: run})
		}
	}
	cache := opts.Cache
	if opts.Audit {
		cache = nil // audited sweeps must simulate every cell
	}
	// The canonical world serialization is shared by every cell key; hash
	// it once per sweep instead of once per job.
	var world []byte
	if cache != nil {
		var err error
		if world, err = sp.canonicalWorldJSON(); err != nil {
			return nil, err
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var execStart time.Duration
	if rec != nil {
		rec.SetWorkers(workers)
		rec.RecordSpan("setup", setupStart, rec.Elapsed())
		execStart = rec.Elapsed()
	}

	// The derived ctx lets fail-fast and early errors stop the feeder and
	// the in-flight simulations without disturbing the caller's context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobCh := make(chan job)
	outCh := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Lanes are 1-based in the recorder: lane 0 is the sweep's own
		// track (setup/execute/merge spans).
		go func(lane int) {
			defer wg.Done()
			// Each worker owns one run arena for its whole lifetime: worlds
			// and simulation substrate recycle across the jobs it executes,
			// and nothing in the arena is shared between workers.
			var ar *runArena
			if !opts.FreshWorlds {
				ar = new(runArena)
			}
			// The send never blocks forever: the fan-in below drains outCh
			// until it closes, so every started job delivers its outcome
			// even after cancellation — dropping outcomes here would make
			// the surfaced error depend on goroutine scheduling.
			for j := range jobCh {
				var start time.Duration
				if rec != nil {
					start = rec.Elapsed()
				}
				var key string
				if cache != nil {
					key = cellKey(world, insts[j.cell].Sched, insts[j.cell].Migration, j.run)
					// A cache error (I/O failure, corrupt entry already
					// evicted by the store) is just a miss: the cache may
					// never make a sweep fail that would have succeeded
					// without it.
					if idx, ok, err := cache.Get(key); err == nil && ok {
						if rec != nil {
							rec.RecordCell(obs.Cell{
								Sched: insts[j.cell].Sched, Migration: insts[j.cell].Migration,
								Run: j.run, Cached: true, Lane: lane,
								Enqueued: j.enqueued, Start: start, End: rec.Elapsed(),
							})
						}
						outCh <- outcome{cell: j.cell, run: j.run, idx: idx, cached: true}
						continue
					}
				}
				var tr *obs.RunTrace
				if rec != nil {
					tr = new(obs.RunTrace)
				}
				idx, err := runInstance(ctx, insts[j.cell], j.run, opts.Audit, tr, ar)
				if err == nil && cache != nil {
					// Best-effort write-through: a read-only or full cache
					// directory costs reuse, not correctness — but it must
					// not look healthy while reuse silently dies, so
					// failures are counted (the store's Stats.PutErrors,
					// plus a telemetry counter when a recorder is attached)
					// even though they never fail the sweep.
					if perr := cache.Put(key, idx); perr != nil && rec != nil {
						rec.AddCounter("cache_put_errors", 1)
					}
				}
				if rec != nil && err == nil {
					rec.RecordCell(obs.Cell{
						Sched: insts[j.cell].Sched, Migration: insts[j.cell].Migration,
						Run: j.run, Lane: lane,
						Enqueued: j.enqueued, Start: start, End: rec.Elapsed(),
						Setup: tr.Setup, Simulate: tr.Simulate, Measure: tr.Measure,
						Kernel: tr.Kernel,
					})
				}
				outCh <- outcome{cell: j.cell, run: j.run, idx: idx, err: err}
			}
		}(w + 1)
	}
	go func() { // feeder
		defer close(jobCh)
		for _, j := range jobs {
			if rec != nil {
				j.enqueued = rec.Elapsed()
			}
			select {
			case jobCh <- j:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() { // closer: fan-in ends when every worker has exited
		wg.Wait()
		close(outCh)
	}()

	// Fan-in runs on the calling goroutine. Results land in a grid indexed
	// by (cell, run), so the merge below rebuilds the exact serial order no
	// matter when jobs finish; progress fires here, hence serialized.
	got := make([][]*Indexes, len(insts))
	failed := make([][]error, len(insts))
	for i := range insts {
		got[i] = make([]*Indexes, sp.Runs)
		failed[i] = make([]error, sp.Runs)
	}
	done := 0
	for out := range outCh {
		if out.err != nil {
			failed[out.cell][out.run] = out.err
			if !opts.ContinueOnError {
				cancel() // fail fast: stop feeding, halt in-flight runs, drain
			}
			continue
		}
		done++
		got[out.cell][out.run] = &out.idx
		if opts.Progress != nil {
			opts.Progress(ProgressEvent{
				Instance: insts[out.cell], Run: out.run,
				Indexes: out.idx, Cached: out.cached,
			})
		}
	}
	var mergeStart time.Duration
	if rec != nil {
		rec.RecordSpan("execute", execStart, rec.Elapsed())
		mergeStart = rec.Elapsed()
	}

	// The grid is scanned in cell/run order, so the error that surfaces
	// first is the one at the lowest matrix position among the jobs that
	// ran, rather than whichever goroutine lost the race. Runs that failed only because cancellation
	// reached them first collapse into one ctx error instead of repeating
	// it per job — and a cancelled sweep always reports the ctx error, even
	// when the unfinished jobs never got far enough to record their own.
	var errs []error
	ctxErr := ctx.Err()
	for cell := range insts {
		for run, err := range failed[cell] {
			if err == nil || (ctxErr != nil && errors.Is(err, ctxErr)) {
				continue
			}
			errs = append(errs, fmt.Errorf("scenario: %s run %d: %w", insts[cell].Key(), run, err))
		}
	}
	if ctxErr != nil && done < len(jobs) {
		errs = append(errs, fmt.Errorf("scenario: %s: %w", sp.Name, ctxErr))
	}
	if len(errs) > 0 && !opts.ContinueOnError {
		return nil, errs[0]
	}

	rep := &Report{Engine: EngineVersion, Spec: sp}
	for cell, inst := range insts {
		c := Cell{Sched: inst.Sched, Migration: inst.Migration}
		var survivors []int
		for run, idx := range got[cell] {
			if idx != nil {
				c.Runs = append(c.Runs, *idx)
				survivors = append(survivors, run)
			}
		}
		// Complete cells stay in the position-is-run-number format (and
		// keep the JSON shape lean); only a cell with gaps needs explicit
		// seed identities.
		if len(c.Runs) != sp.Runs {
			c.RunNumbers = survivors
		}
		rep.Cells = append(rep.Cells, c)
	}
	if rec != nil {
		rec.RecordSpan("merge", mergeStart, rec.Elapsed())
	}
	return rep, errors.Join(errs...)
}
