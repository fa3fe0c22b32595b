package core

// fifo is the pending-job queue shared by the batch and streaming
// engines: a slice plus a head offset. Popping the head advances the
// offset instead of shifting the queue, and the live elements are copied
// back to the front once the dead slack before them reaches their count,
// so a placement costs O(1) amortised element moves. The dead slack
// stays below the live count, so the backing array holds under twice the
// queue's peak depth and, once grown to it, is reused without
// allocating. Vacated slots are zeroed so placed jobs are not retained.
type fifo[T any] struct {
	buf  []T
	head int
	// moves counts element copies (compactions plus RemoveAt shifts):
	// the work-count the dispatch gates assert on.
	moves int
}

// Len returns the number of queued elements.
func (q *fifo[T]) Len() int { return len(q.buf) - q.head }

// At returns the i-th queued element, 0 being the head.
func (q *fifo[T]) At(i int) T { return q.buf[q.head+i] }

// Push appends v at the tail.
//
//repro:noalloc
func (q *fifo[T]) Push(v T) {
	q.buf = append(q.buf, v)
}

// RemoveAt removes and returns the i-th queued element, keeping the
// others in order. It shifts whichever side of i is shorter, so popping
// the head, or a job just behind it, moves nothing.
//
//repro:noalloc
func (q *fifo[T]) RemoveAt(i int) T {
	var zero T
	live := q.buf[q.head:]
	v := live[i]
	if tail := len(live) - 1 - i; i < tail {
		copy(live[1:i+1], live[:i])
		live[0] = zero
		q.head++
		q.moves += i
	} else {
		copy(live[i:], live[i+1:])
		live[len(live)-1] = zero
		q.buf = q.buf[:len(q.buf)-1]
		q.moves += tail
	}
	if q.head > 0 && q.head >= q.Len() {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
		q.moves += n
	}
	return v
}
