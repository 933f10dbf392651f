package uthread

// msgQueue holds a thread's pending messages bucketed by constraint level so
// that the scheduler's per-decision work is O(1) in queue length:
//
//   - best-message selection (highest constraint first, FIFO within a level)
//     pops the head of the highest non-empty bucket,
//   - bestConstraint (the priority-inheritance probe that used to scan the
//     whole queue per heap comparison) reads the same head,
//
// both in O(distinct constraint levels) — small and bounded in practice
// (applications use a handful of levels such as Low/Normal/High/Control).
// Unconstrained messages live in their own FIFO ring; constrained messages
// are indexed separately in buckets sorted by descending level.  Selective
// receives (non-nil predicates) still walk the queue, but in delivery order,
// so they find the same message the old scan-everything code found.
//
// All access happens with the scheduler mutex held.
type msgQueue struct {
	plain   msgRing     // unconstrained messages, FIFO
	buckets []msgBucket // constrained messages, sorted by level descending
	count   int
}

// msgBucket is the FIFO of pending messages at one constraint level.  Empty
// buckets are kept: levels recur, and keeping them avoids re-sorting churn.
type msgBucket struct {
	level Priority
	ring  msgRing
}

// msgRing is a FIFO of messages on a reusable backing slice: pops advance a
// head index instead of re-slicing, and the array is reclaimed for new
// pushes whenever the ring drains, so a steady-state producer/consumer pair
// stops allocating entirely.
type msgRing struct {
	buf  []Message
	head int
}

func (r *msgRing) len() int { return len(r.buf) - r.head }

//ipvet:hotpath mailbox ring append; every Post lands here
func (r *msgRing) push(m Message) {
	if r.head > 0 && r.head == len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	}
	r.buf = append(r.buf, m)
}

//ipvet:hotpath mailbox ring pop; every Receive lands here
func (r *msgRing) pop() Message {
	m := r.buf[r.head]
	r.buf[r.head] = Message{}
	r.head++
	if r.head == len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	} else if r.head > 32 && r.head*2 >= len(r.buf) {
		// A mailbox that never fully drains would otherwise grow its dead
		// prefix forever; compact once the prefix dominates, keeping memory
		// at O(peak depth) like the slice-splicing code this replaced.
		n := copy(r.buf, r.buf[r.head:])
		clearTail := r.buf[n:]
		for i := range clearTail {
			clearTail[i] = Message{}
		}
		r.buf = r.buf[:n]
		r.head = 0
	}
	return m
}

// at returns the i-th queued message counting from the head (0-based).
func (r *msgRing) at(i int) *Message { return &r.buf[r.head+i] }

// removeAt removes and returns the i-th queued message (0-based from head).
func (r *msgRing) removeAt(i int) Message {
	if i == 0 {
		return r.pop()
	}
	idx := r.head + i
	m := r.buf[idx]
	copy(r.buf[idx:], r.buf[idx+1:])
	r.buf[len(r.buf)-1] = Message{}
	r.buf = r.buf[:len(r.buf)-1]
	return m
}

func (r *msgRing) clear() {
	r.buf = nil
	r.head = 0
}

// push appends m to its constraint bucket (FIFO within a level).
//
//ipvet:hotpath per-message enqueue on the scheduler's mailbox
func (q *msgQueue) push(m Message) {
	q.count++
	if !m.Constraint.Set {
		q.plain.push(m)
		return
	}
	lvl := m.Constraint.Level
	for i := range q.buckets {
		if q.buckets[i].level == lvl {
			q.buckets[i].ring.push(m)
			return
		}
		if q.buckets[i].level < lvl {
			// Insert a new bucket, keeping descending order.
			q.buckets = append(q.buckets, msgBucket{})
			copy(q.buckets[i+1:], q.buckets[i:])
			q.buckets[i] = msgBucket{level: lvl}
			q.buckets[i].ring.push(m)
			return
		}
	}
	q.buckets = append(q.buckets, msgBucket{level: lvl})
	q.buckets[len(q.buckets)-1].ring.push(m)
}

// bestConstraint reports the highest constraint level among queued messages.
//
//ipvet:hotpath consulted on every scheduling decision
func (q *msgQueue) bestConstraint() (Priority, bool) {
	for i := range q.buckets {
		if q.buckets[i].ring.len() > 0 {
			return q.buckets[i].level, true
		}
	}
	return 0, false
}

// popBest removes and returns the next message in delivery order: highest
// constraint level first, FIFO within a level, unconstrained last.
//
//ipvet:hotpath per-message dequeue on the scheduler's mailbox
func (q *msgQueue) popBest() (Message, bool) {
	for i := range q.buckets {
		if q.buckets[i].ring.len() > 0 {
			q.count--
			return q.buckets[i].ring.pop(), true
		}
	}
	if q.plain.len() > 0 {
		q.count--
		return q.plain.pop(), true
	}
	return Message{}, false
}

// popMatch removes and returns the first message in delivery order that
// satisfies pred (nil matches all).
func (q *msgQueue) popMatch(pred func(Message) bool) (Message, bool) {
	if pred == nil {
		return q.popBest()
	}
	for i := range q.buckets {
		r := &q.buckets[i].ring
		for j := 0; j < r.len(); j++ {
			if pred(*r.at(j)) {
				q.count--
				return r.removeAt(j), true
			}
		}
	}
	for j := 0; j < q.plain.len(); j++ {
		if pred(*q.plain.at(j)) {
			q.count--
			return q.plain.removeAt(j), true
		}
	}
	return Message{}, false
}

func (q *msgQueue) len() int { return q.count }

func (q *msgQueue) clear() {
	q.plain.clear()
	q.buckets = nil
	q.count = 0
}
