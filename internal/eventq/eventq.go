// Package eventq provides the pending-event set implementations used by the
// event-driven simulation engines.
//
// Event queue management is one of the serial bottlenecks the paper's
// "algorithm parallelism" discussion calls out, and the choice of structure
// matters enough that three classic implementations are provided behind one
// interface: a binary heap (the baseline), Brown's calendar queue, and the
// timing wheel traditionally used by logic simulators. Experiment E14
// benchmarks them against each other under simulator-like access patterns.
//
// All queues order events by ascending time. Events that share a time may
// be returned in any order; the engines' two-phase timestep semantics make
// the simulation result independent of intra-timestep ordering.
package eventq

import "fmt"

// Queue is a pending-event set holding values of type T keyed by time.
type Queue[T any] interface {
	// Push inserts an event. Pushing a time earlier than the last popped
	// time is always an engine bug (scheduling into the past); the event
	// is dropped and the violation is latched as a sentinel error on Err,
	// which engines surface as a causality failure at the next check.
	// Under the eventqdebug build tag the push panics instead, preserving
	// the crashing stack for queue-level debugging.
	Push(time uint64, v T)
	// PopMin removes and returns an event with the minimum time.
	// ok is false when the queue is empty.
	PopMin() (time uint64, v T, ok bool)
	// PeekTime returns the minimum time without removing anything.
	PeekTime() (uint64, bool)
	// Peek returns an event with the minimum time without removing it —
	// the same event the next PopMin would return.
	Peek() (time uint64, v T, ok bool)
	// Len returns the number of pending events.
	Len() int
	// ResetFloor forgets the last popped time, permitting pushes earlier
	// than previously popped events. Time Warp rollback requeues past
	// events and needs this; the other engines never call it.
	ResetFloor()
	// Err returns the first push-into-the-past violation, or nil. The
	// error is sticky: once set, the queue has dropped an event and its
	// contents are no longer trustworthy, so the run must abort.
	Err() error
}

// Impl names a queue implementation for configuration and reporting.
type Impl uint8

// The available implementations.
const (
	ImplHeap Impl = iota
	ImplCalendar
	ImplWheel
)

// String names the implementation.
func (i Impl) String() string {
	switch i {
	case ImplHeap:
		return "heap"
	case ImplCalendar:
		return "calendar"
	case ImplWheel:
		return "wheel"
	}
	return fmt.Sprintf("Impl(%d)", uint8(i))
}

// New constructs a queue of the given implementation.
func New[T any](impl Impl) Queue[T] {
	return NewCap[T](impl, 0)
}

// NewCap constructs a queue with a capacity hint: the backing storage is
// pre-grown so an engine's warm-up pushes skip the append growth chain.
// Implementations whose storage is already slotted (calendar, wheel) ignore
// the hint; their per-slot slices grow once and are reused thereafter.
func NewCap[T any](impl Impl, hint int) Queue[T] {
	switch impl {
	case ImplCalendar:
		return NewCalendar[T]()
	case ImplWheel:
		return NewWheel[T](256)
	default:
		h := NewHeap[T]()
		if hint > 0 {
			h.items = make([]item[T], 0, hint)
		}
		return h
	}
}

// item is a timed entry shared by the implementations.
type item[T any] struct {
	time uint64
	v    T
}

// Heap is a binary min-heap keyed by time. It is the baseline
// implementation: O(log n) per operation, no tuning parameters.
type Heap[T any] struct {
	items   []item[T]
	lastPop uint64
	err     error
}

// NewHeap returns an empty heap queue.
func NewHeap[T any]() *Heap[T] { return &Heap[T]{} }

// Len returns the number of pending events.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts an event.
func (h *Heap[T]) Push(time uint64, v T) {
	if time < h.lastPop {
		h.err = pushFault(h.err, time, h.lastPop)
		return
	}
	h.items = append(h.items, item[T]{time, v})
	h.up(len(h.items) - 1)
}

// Err returns the latched push violation, if any.
func (h *Heap[T]) Err() error { return h.err }

// PeekTime returns the minimum pending time.
func (h *Heap[T]) PeekTime() (uint64, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].time, true
}

// Peek returns the next event without removing it.
func (h *Heap[T]) Peek() (uint64, T, bool) {
	if len(h.items) == 0 {
		var zero T
		return 0, zero, false
	}
	return h.items[0].time, h.items[0].v, true
}

// ResetFloor permits pushes earlier than the last popped time.
func (h *Heap[T]) ResetFloor() { h.lastPop = 0 }

// PopMin removes an event with the minimum time.
func (h *Heap[T]) PopMin() (uint64, T, bool) {
	t, v, ok := h.popMin()
	if ok {
		h.lastPop = t
	}
	return t, v, ok
}

// popMin is PopMin without raising the push floor, for the wheel's
// overflow: promoting an event into the slots is not a pop of the queue.
func (h *Heap[T]) popMin() (uint64, T, bool) {
	var zero T
	if len(h.items) == 0 {
		return 0, zero, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = item[T]{} // release references for GC
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top.time, top.v, true
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].time <= h.items[i].time {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].time < h.items[small].time {
			small = l
		}
		if r < n && h.items[r].time < h.items[small].time {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}
