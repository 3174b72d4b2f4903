package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request's timeline, as offsets from the start of
// the schedule: when it was due, when a sender sent it, and when it
// completed.
type sample struct {
	due, sent, done time.Duration
	err             error
}

func (s sample) latency() time.Duration { return s.done - s.due }
func (s sample) lag() time.Duration     { return s.sent - s.due }

// openLoop sends request i at start+due[i] whatever happened to the earlier
// requests — an open loop, as from independent users — using at most conns
// concurrent senders, so at most conns connections are ever open. A request
// due while every sender is busy goes out late: its latency still counts
// from its due time, and lag reports by how much the generator fell behind.
// do performs request i. due must be non-decreasing.
func openLoop(ctx context.Context, due []time.Duration, conns int, do func(ctx context.Context, i int) error) []sample {
	samples := make([]sample, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				s := &samples[i]
				s.due = due[i]
				if wait := time.Until(start.Add(due[i])); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						s.err = ctx.Err()
						continue
					}
				}
				s.sent = time.Since(start)
				s.err = do(ctx, i)
				s.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return samples
}

// schedule returns n due times at a fixed rate per second.
func schedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}
