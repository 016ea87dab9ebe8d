// Package loadgen drives the system under test: a closed loop (each client
// sends its next job when the previous one completed, so a slow system
// receives less load) and an open loop (jobs are sent on a fixed schedule
// whether or not earlier ones have completed, and each is timed from the
// moment it was due, so a stall shows in the latency of every request due
// during it — no coordinated omission).
package loadgen

import (
	"context"
	"errors"
	"sync"
	"time"

	"sccpipe/bench"
	"sccpipe/bench/client"
)

// DoFunc sends one job and returns what came back.
type DoFunc func(ctx context.Context, job bench.Job) *client.Result

// Sample is one attempted operation.
type Sample struct {
	*client.Result
	// Step is the open-loop step the job belongs to (0 for closed loops).
	Step int
	// Lag is how late the generator sent the job relative to its due time
	// (0 for closed loops, whose jobs are due when they are sent).
	Lag time.Duration
	// Inflight is the number of jobs outstanding when this one was due.
	Inflight int
	// Overflow marks an arrival that found the in-flight cap reached and
	// was counted as failed without being sent (Err is ErrOverflow).
	Overflow bool
}

// ErrOverflow is the error of an arrival dropped at the in-flight cap.
var ErrOverflow = errors.New("loadgen: in-flight cap reached, job not sent")

// OK reports whether the job completed and verified.
func (s Sample) OK() bool { return s.Err == nil }

// Due is the moment the job was due to be sent.
func (s Sample) Due() time.Time { return s.Start.Add(-s.Lag) }

// Latency is due time → summary read.
func (s Sample) Latency() time.Duration { return s.Lag + s.Done }

// TTFF is due time → first frame read and verified.
func (s Sample) TTFF() time.Duration { return s.Lag + s.FrameAt[0] }

// Closed runs clients closed loops: each takes its next job from next
// (which must be safe for concurrent use) until next reports false or ctx
// ends, and passes every result to emit (serialized). It returns when all
// clients have finished their last job.
func Closed(ctx context.Context, clients int, next func() (bench.Job, bool), do DoFunc, emit func(Sample)) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				job, ok := next()
				if !ok {
					return
				}
				res := do(ctx, job)
				mu.Lock()
				emit(Sample{Result: res})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// Open sends every arrival of the schedule at start+Due regardless of how
// many earlier jobs are still outstanding, up to inflightCap; an arrival
// beyond the cap is emitted as an Overflow sample. It returns once the
// whole schedule has been dispatched and every sent job has returned —
// cancel ctx to cut outstanding jobs short. emit calls are serialized.
func Open(ctx context.Context, start time.Time, schedule []bench.Arrival, inflightCap int, do DoFunc, emit func(Sample)) {
	var mu sync.Mutex // guards inflight and serializes emit
	inflight := 0
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for _, a := range schedule {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		lag := time.Since(due)
		mu.Lock()
		seen := inflight
		if seen >= inflightCap {
			emit(Sample{Result: &client.Result{Job: a.Job, Start: due.Add(lag), Err: ErrOverflow},
				Step: a.Step, Lag: lag, Inflight: seen, Overflow: true})
			mu.Unlock()
			continue
		}
		inflight++
		mu.Unlock()
		wg.Add(1)
		go func(a bench.Arrival) {
			defer wg.Done()
			res := do(ctx, a.Job)
			mu.Lock()
			inflight--
			// The client stamps Start itself; re-derive the lag from it so
			// Due() is exactly the scheduled time.
			emit(Sample{Result: res, Step: a.Step, Lag: res.Start.Sub(due), Inflight: seen})
			mu.Unlock()
		}(a)
	}
	wg.Wait()
}
