package uthread

import (
	"container/heap"
	"sync/atomic"
	"time"
)

// readyQueue is a max-heap of runnable threads ordered by cached effective
// priority, weighted-fair virtual time within a priority level, FIFO among
// exact equals, save that a thread preempted mid-grant returns to the head
// (pushFront).  The cached fields (t.effPrio, t.vtSnap) are refreshed at
// every point a queued thread's ordering inputs can change — push, re-push,
// and message arrival (fix) — so heap comparisons are plain field compares
// and peekMax never has to rebuild the heap.  All access happens with the
// scheduler mutex held.
//
// vnow is the server virtual clock of the weighted-fair layer: the stamp of
// the latest granted classed thread.  Classless threads are stamped with
// vnow itself, so with no classes in play every stamp is zero and ordering
// degenerates to exactly the pre-fairness (priority, FIFO) order.
type readyQueue struct {
	items readyHeap
	// nextSeq numbers admissions at the tail of a priority level, upward;
	// headSeq numbers returns to its head (pushFront), downward.
	nextSeq, headSeq int64
	vnow             int64

	// vnowAtomic mirrors vnow for lock-free stats reads (Scheduler.FairNow).
	vnowAtomic atomic.Int64
	// cycles counts the cycles charged at every admission, classed or not
	// (Stats.Cycles).
	cycles atomic.Int64
}

type readyHeap []*Thread

func (h readyHeap) Len() int { return len(h) }

func (h readyHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.effPrio != b.effPrio {
		return a.effPrio > b.effPrio // max-heap: higher priority first
	}
	if a.vtSnap != b.vtSnap {
		return a.vtSnap < b.vtSnap // weighted-fair: earliest virtual time first
	}
	return a.readySeq < b.readySeq // FIFO among equals
}

func (h readyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h *readyHeap) Push(x any) {
	t := x.(*Thread)
	t.heapIdx = len(*h)
	*h = append(*h, t)
}

func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.heapIdx = -1
	*h = old[:n-1]
	return t
}

// push adds t to the run queue, snapshotting its effective priority and
// weighted-fair virtual-time stamp.  A classed thread is stamped with
// max(class account, server virtual time) — an idle class forfeits unused
// credit instead of bursting after idleness (SCFQ start tags) — and the
// class account is charged cycles times the per-cycle cost: the cycles of
// the grant that just ended, which is one unless a batching thread said
// otherwise (YieldAfter).  Every admission adds its cycles to the
// scheduler's total, the denominator of a class's share.  Pushing a thread
// that is already queued refreshes its cached priority instead (idempotent,
// guarding against double-ready races).
//
//ipvet:hotpath ready-queue admission; every wakeup and preemption passes here
func (q *readyQueue) push(t *Thread, cycles int) {
	if t.heapIdx >= 0 {
		q.fix(t)
		return
	}
	q.nextSeq++
	t.readySeq = q.nextSeq
	t.effPrio = t.effectivePriorityLocked()
	q.cycles.Add(int64(cycles))
	if c := t.class; c != nil {
		vt := c.vtime.Load()
		if vt < q.vnow {
			vt = q.vnow
		}
		t.vtSnap = vt
		c.vtime.Store(vt + c.cost.Load()*int64(cycles))
		c.granted.Add(int64(cycles))
	} else {
		t.vtSnap = q.vnow
	}
	heap.Push(&q.items, t)
}

// pushFront returns t, preempted by a strictly higher priority in the middle
// of its grant, to the head of its priority level with the stamp it was
// granted at: the grant is suspended, not ended, so nothing is charged and
// the thread resumes before its equals (a preempted thread keeps its turn,
// as under POSIX SCHED_FIFO).  A batching pump thus finishes its batch after
// a higher-priority wake instead of going to the back of the queue.
//
//ipvet:hotpath every strict preemption passes here
func (q *readyQueue) pushFront(t *Thread) {
	q.headSeq--
	t.readySeq = q.headSeq
	t.effPrio = t.effectivePriorityLocked()
	heap.Push(&q.items, t)
}

// popMax removes and returns the highest-effective-priority thread, or nil.
// Granting a classed thread advances the server virtual clock to its stamp.
//
//ipvet:hotpath run-token grant; every context switch passes here
func (q *readyQueue) popMax() *Thread {
	if len(q.items) == 0 {
		return nil
	}
	t := heap.Pop(&q.items).(*Thread)
	if t.vtSnap > q.vnow {
		q.vnow = t.vtSnap
		q.vnowAtomic.Store(t.vtSnap)
	}
	return t
}

// peekMax returns the highest-effective-priority thread without removing
// it, or nil.  The heap is maintained incrementally at every invalidation
// site, so the root is always current — no rebuild needed.
func (q *readyQueue) peekMax() *Thread {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// fix re-snapshots t's effective priority and restores heap order.  Called
// whenever a queued thread's priority inputs change (a message arrived).
func (q *readyQueue) fix(t *Thread) {
	if t.heapIdx < 0 {
		return
	}
	p := t.effectivePriorityLocked()
	if p == t.effPrio {
		return
	}
	t.effPrio = p
	heap.Fix(&q.items, t.heapIdx)
}

// timerEntry is a pending timer.
type timerEntry struct {
	at    time.Time
	seq   uint64
	dst   *Thread
	token TimerToken
}

// timerQueue is a min-heap of timers by (deadline, arrival).  Cancellation
// is lazy in the heap but O(1) to request: a token → pending index decides
// membership without scanning, and cancelled entries are skipped when they
// reach the root.  All access happens with the scheduler mutex held.
type timerQueue struct {
	items     timerHeap
	pending   map[TimerToken]struct{} // live (uncancelled) tokens in the heap; made by New
	cancelled map[TimerToken]struct{}
}

// timerHeap is the heap's array.  The sifts are written out because
// container/heap moves elements through `any`, and a timerEntry is not
// pointer-shaped: each Push and each Pop would box one (two allocations per
// timed sleep).
type timerHeap []timerEntry

func (h timerHeap) less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h timerHeap) down(i int) {
	for {
		j := 2*i + 1 // left child
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

//ipvet:hotpath timer admission; once per paced pump cycle
func (q *timerQueue) push(e timerEntry) {
	q.pending[e.token] = struct{}{}
	q.items = append(q.items, e)
	q.items.up(len(q.items) - 1)
}

// popRoot removes and returns the earliest entry of a non-empty heap.
func (q *timerQueue) popRoot() timerEntry {
	h := q.items
	n := len(h) - 1
	e := h[0]
	h[0] = h[n]
	h[n] = timerEntry{} // drop the thread reference
	q.items = h[:n]
	q.items.down(0)
	return e
}

// cancel marks tok cancelled; reports whether it was pending.  O(1).
func (q *timerQueue) cancel(tok TimerToken) bool {
	if _, live := q.pending[tok]; !live {
		return false
	}
	delete(q.pending, tok)
	if q.cancelled == nil {
		q.cancelled = make(map[TimerToken]struct{})
	}
	q.cancelled[tok] = struct{}{}
	return true
}

// peek returns the earliest live deadline.
func (q *timerQueue) peek() (time.Time, bool) {
	q.drainCancelled()
	if len(q.items) == 0 {
		return time.Time{}, false
	}
	return q.items[0].at, true
}

// popDue removes and returns the earliest timer due at or before now.
//
//ipvet:hotpath once per timer wake
func (q *timerQueue) popDue(now time.Time) (timerEntry, bool) {
	q.drainCancelled()
	if len(q.items) == 0 || q.items[0].at.After(now) {
		return timerEntry{}, false
	}
	e := q.popRoot()
	delete(q.pending, e.token)
	return e, true
}

// purgeDst physically removes every timer addressed to dst (pending or
// lazily cancelled).  Called when dst terminates, so a dead thread's timers
// do not sit in the heap until due.  O(n) plus a heap rebuild — thread
// termination is rare next to timer traffic.
func (q *timerQueue) purgeDst(dst *Thread) {
	if len(q.items) == 0 {
		return
	}
	kept := q.items[:0]
	removed := false
	for _, e := range q.items {
		if e.dst == dst {
			delete(q.pending, e.token)
			delete(q.cancelled, e.token)
			removed = true
			continue
		}
		kept = append(kept, e)
	}
	if !removed {
		return
	}
	q.items = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		q.items.down(i)
	}
}

// pendingLen reports the number of physical heap entries (tests).
func (q *timerQueue) pendingLen() int { return len(q.items) }

// drainCancelled removes cancelled entries from the heap root.
func (q *timerQueue) drainCancelled() {
	for len(q.items) > 0 {
		if _, dead := q.cancelled[q.items[0].token]; !dead {
			return
		}
		delete(q.cancelled, q.popRoot().token)
	}
}
