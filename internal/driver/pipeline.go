package driver

import (
	"fmt"
	"sync"

	"repro/internal/points"
)

// The publish pipeline batches concurrent Adds into group commits: a
// bounded queue feeds one coalescing worker that drains whatever is
// waiting (up to maxBatch), folds the whole batch copy-on-write, and
// installs a single new epoch. Under concurrent publish load this
// amortizes the epoch install and the copy of each touched local skyline
// across the batch — one epoch per batch instead of one per point —
// while keeping Add's synchronous contract: each caller blocks on its own
// result channel until its batch's epoch is installed, so an acknowledged
// publish is always visible (group commit, exactly as in a WAL'd
// database). AddAsync is the fire-and-forget variant; Barrier flushes.

// DefaultPublishQueue and DefaultPublishBatch size the pipeline when the
// caller passes non-positive values to StartPipeline.
const (
	DefaultPublishQueue = 1024
	DefaultPublishBatch = 256
)

type pipeline struct {
	ix       *Index
	ch       chan *pending
	maxBatch int

	// closing guards the channel against send-after-close: senders hold
	// the read side around their send, Close takes the write side before
	// closing the channel. A closed pipeline refuses every send.
	closing sync.RWMutex
	closed  bool
	done    chan struct{}
}

// StartPipeline switches the index into batched publish mode with the
// given queue depth and maximum batch size (non-positive values select
// the defaults). It is an error to start a second pipeline without
// closing the first. The worker goroutine exits on Close.
func (ix *Index) StartPipeline(queue, maxBatch int) error {
	if queue <= 0 {
		queue = DefaultPublishQueue
	}
	if maxBatch <= 0 {
		maxBatch = DefaultPublishBatch
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.pipe.Load() != nil {
		return fmt.Errorf("driver: publish pipeline already running")
	}
	p := &pipeline{
		ix:       ix,
		ch:       make(chan *pending, queue),
		maxBatch: maxBatch,
		done:     make(chan struct{}),
	}
	ix.pipe.Store(p)
	go p.run()
	return nil
}

// Close drains and stops the publish pipeline (a no-op when none is
// running). Every publish accepted before Close returns is folded and
// acknowledged; later Adds fall back to the synchronous path.
func (ix *Index) Close() {
	p := ix.pipe.Load()
	if p == nil {
		return
	}
	p.closing.Lock()
	if p.closed {
		p.closing.Unlock()
		return
	}
	p.closed = true
	close(p.ch)
	p.closing.Unlock()
	<-p.done
	ix.pipe.Store(nil)
}

// send queues pd on the running pipeline. It reports false when no
// pipeline is running or it has closed, and then pd was not queued.
func (ix *Index) send(pd *pending) bool {
	p := ix.pipe.Load()
	if p == nil {
		return false
	}
	p.closing.RLock()
	defer p.closing.RUnlock()
	if p.closed {
		return false
	}
	p.ch <- pd
	return true
}

// enqueue hands a publish to the pipeline, or folds it synchronously as a
// batch of one when none takes it, so a publish that races Close is never
// lost. Either way its result arrives on pd.done.
func (ix *Index) enqueue(pd *pending) {
	if !ix.send(pd) {
		ix.foldBatch([]*pending{pd})
	}
}

// AddAsync enqueues a publish without waiting for its commit; the result
// is discarded (the done channel is buffered, so the fold never blocks
// on an absent receiver). Callers needing a visibility point use
// Barrier. Without a running pipeline it degrades to a synchronous Add.
func (ix *Index) AddAsync(p points.Point) {
	ix.enqueue(&pending{p: p, done: make(chan addResult, 1)})
}

// Barrier blocks until every publish enqueued before the call has
// committed — the flush-on-query-barrier hook that keeps tests
// deterministic with async publishers. Implemented as a group-committed
// no-op ride-along: a zero-point pending joins the queue and its ack
// implies all earlier queue entries committed first (single worker,
// FIFO drain).
func (ix *Index) Barrier() {
	pd := &pending{done: make(chan addResult, 1)}
	if ix.send(pd) {
		<-pd.done
	}
}

// run is the coalescing worker: block for one pending, drain whatever
// else is already queued (up to maxBatch), fold the batch as one epoch.
// Barrier pendings (nil point) are separated out before the fold and
// acknowledged after it — everything queued before a barrier commits
// first (single worker, FIFO drain).
func (p *pipeline) run() {
	defer close(p.done)
	batch := make([]*pending, 0, p.maxBatch)
	barriers := make([]*pending, 0, 4)
	flush := func() {
		if len(batch) > 0 {
			p.ix.foldBatch(batch)
		}
		for _, b := range barriers {
			b.done <- addResult{}
		}
		batch, barriers = batch[:0], barriers[:0]
	}
	take := func(pd *pending) {
		if pd.p == nil {
			barriers = append(barriers, pd)
		} else {
			batch = append(batch, pd)
		}
	}
	for pd := range p.ch {
		take(pd)
	drain:
		for len(batch) < p.maxBatch {
			select {
			case more, open := <-p.ch:
				if !open {
					flush()
					return
				}
				take(more)
			default:
				break drain
			}
		}
		flush()
	}
	flush()
}
