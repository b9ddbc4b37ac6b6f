package rt

import (
	"fmt"
	"sync"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// Submission is one user Send waiting to enter the protocol through the
// loop goroutine that owns its entity. User code goes through the
// runtime's Send and friends, never through this directly.
type Submission struct {
	Payload []byte
	Deps    mid.DepList
	Causal  bool
	Sent    time.Time      // when the Send began, for the submit-wait histogram
	Res     chan SubResult // receives the submit outcome (buffered, cap 1)
	Confirm chan struct{}  // closed when the message is processed locally
}

// SubResult is the outcome of running one Submission inside the loop.
type SubResult struct {
	ID  mid.MID
	Err error
}

// ErrCoalescerStopped answers submissions caught pending in the coalescer
// when its runtime shuts down.
var ErrCoalescerStopped = fmt.Errorf("rt: node stopped with submission unsent")

// wireCost is the submission's encoded body size on the wire — mid(8) +
// depCount(2) + deps(8 each) + payloadLen(2) + payload. SubmitCausal
// labels are computed later inside the node goroutine, so for causal
// sends this is a floor, which only makes the coalescer flush earlier.
func (s *Submission) wireCost() int {
	return 12 + 8*len(s.Deps) + len(s.Payload)
}

// Coalescer batches user submissions between round ticks. The protocol
// broadcasts its outbox only when a subrun starts, so a submission gains
// nothing by entering the loop before the next tick: the loop takes every
// pending submission at each tick (Drain) as one batch, and the outbox
// leaves that subrun as DataBatch frames instead of one Data per subrun.
// A batch that fills the count or byte budget goes to the loop at once
// instead, blocking the Send while the loop's inbox is full. Confirm
// semantics are untouched — every Send still blocks until its own
// message is processed locally.
type Coalescer struct {
	maxCount int
	maxBytes int

	// enqueue hands a closure to the node loop, blocking until accepted;
	// it fails only on shutdown. submit runs one submission inside that
	// loop. observe records flush sizes (may be nil).
	enqueue func(fn func()) error
	submit  func(s *Submission)
	observe func(batch int)

	mu      sync.Mutex
	pending []*Submission
	bytes   int
	refusal error // non-nil: Add answers with it at once (Refuse, Stop)
	stopped bool  // Stop's refusal is final

	// spare is the slice Drain swaps in for pending, so steady-state
	// draining allocates nothing. Loop goroutine only.
	spare []*Submission
}

// NewCoalescer builds a coalescing sender. enqueue must hand a closure to
// the loop goroutine that owns submit, blocking until accepted and failing
// only on shutdown; observe (optional) receives the size of every flush.
func NewCoalescer(maxCount, maxBytes int, enqueue func(func()) error,
	submit func(*Submission), observe func(int)) *Coalescer {
	if maxCount <= 1 {
		maxCount = core.DefaultBatchMax
	}
	if maxBytes <= 0 {
		maxBytes = core.DefaultBatchBytes
	}
	return &Coalescer{
		maxCount: maxCount,
		maxBytes: maxBytes,
		enqueue:  enqueue,
		submit:   submit,
		observe:  observe,
	}
}

// Add queues one submission. It returns once the submission is pending for
// the next Drain or part of a full batch handed to the loop; the caller
// then waits on s.Res and s.Confirm under its own context. While refused
// (Refuse, Stop), submissions fail immediately on Res.
func (c *Coalescer) Add(s *Submission) {
	c.mu.Lock()
	if err := c.refusal; err != nil {
		c.mu.Unlock()
		s.Res <- SubResult{Err: err}
		return
	}
	c.pending = append(c.pending, s)
	c.bytes += s.wireCost()
	var batch []*Submission
	if len(c.pending) >= c.maxCount || c.bytes >= c.maxBytes {
		batch = c.pending
		c.pending = nil
		c.bytes = 0
	}
	c.mu.Unlock()
	if batch != nil {
		c.flush(batch)
	}
}

// Drain submits every pending submission, in arrival order. It must run on
// the loop goroutine that owns submit — the runtime calls it at each round
// tick, before the round starts. The two pending slices are swapped, not
// reallocated.
func (c *Coalescer) Drain() {
	if c == nil {
		return
	}
	c.mu.Lock()
	batch := c.pending
	c.pending = c.spare[:0]
	c.bytes = 0
	c.mu.Unlock()
	if len(batch) > 0 {
		if c.observe != nil {
			c.observe(len(batch))
		}
		for _, s := range batch {
			c.submit(s)
		}
		clear(batch)
	}
	c.spare = batch[:0]
}

// Refuse answers every pending submission with err, and every later Add
// until Admit — for a member that is fail-stopped, whose loop will not
// drain. No effect after Stop. Nil-safe.
func (c *Coalescer) Refuse(err error) { c.refuse(err, false) }

// Admit ends a Refuse: later Adds pend again. No effect after Stop.
// Nil-safe.
func (c *Coalescer) Admit() {
	if c == nil {
		return
	}
	c.mu.Lock()
	if !c.stopped {
		c.refusal = nil
	}
	c.mu.Unlock()
}

// Stop fails every submission still pending with ErrCoalescerStopped, so
// no Send is left waiting on a confirm that can never come, and makes any
// later Add fail the same way, for good. Nil-safe; idempotent. The
// runtimes call it on shutdown after closing their stop channels.
func (c *Coalescer) Stop() { c.refuse(ErrCoalescerStopped, true) }

func (c *Coalescer) refuse(err error, final bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.refusal, c.stopped = err, final
	batch := c.pending
	c.pending = nil
	c.bytes = 0
	c.mu.Unlock()
	for _, s := range batch {
		s.Res <- SubResult{Err: err}
	}
}

// Pending reports how many submissions wait for the next Drain. Nil-safe;
// for tests and introspection, not the hot path.
func (c *Coalescer) Pending() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// flush hands a full batch to the node goroutine as one inbox event.
// On shutdown every waiter is answered with the enqueue error instead of
// being left to hang.
func (c *Coalescer) flush(batch []*Submission) {
	if c.observe != nil {
		c.observe(len(batch))
	}
	if err := c.enqueue(func() {
		for _, s := range batch {
			c.submit(s)
		}
	}); err != nil {
		for _, s := range batch {
			s.Res <- SubResult{Err: err}
		}
	}
}
