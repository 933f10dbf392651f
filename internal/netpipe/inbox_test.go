package netpipe

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

const kindTestKick uthread.Kind = uthread.KindUserBase + 91

// TestTCPSendAfterCloseReportsStopped: the seed's send returned nil after
// Close, so tcpSink.Push reported success while dropping the item.  Senders
// must learn the link is gone.
func TestTCPSendAfterCloseReportsStopped(t *testing.T) {
	c1, c2 := net.Pipe()
	go io.Copy(io.Discard, c2) //nolint:errcheck — drain until close
	link := NewTCPSenderLink(c1)

	if err := link.send(dataHeader(uthread.PriorityNormal), []byte("alive"), true); err != nil {
		t.Fatalf("send on live link: %v", err)
	}
	if err := link.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := link.send(dataHeader(uthread.PriorityNormal), []byte("dead"), true); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("send after Close = %v, want core.ErrStopped", err)
	}

	sink := link.NewSink("sink").(*tcpSink)
	it := item.New([]byte("payload"), 0, time.Time{})
	if err := sink.Push(nil, it); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("Push after Close = %v, want core.ErrStopped", err)
	}
	if link.Dropped() != 0 {
		t.Fatalf("sender link Dropped = %d, want 0", link.Dropped())
	}
	c2.Close()
}

// TestInboxOverflowCountsDrops: frames beyond the queue limit (and frames
// arriving after close) are discarded and the drop counter says so.
func TestInboxOverflowCountsDrops(t *testing.T) {
	b := newInbox(2)
	for i := 0; i < 5; i++ {
		b.inject(frameEntry{data: []byte{byte(i)}}, uthread.PriorityHigh)
	}
	if got := b.length(); got != 2 {
		t.Fatalf("length = %d, want limit 2", got)
	}
	if got := b.dropped(); got != 3 {
		t.Fatalf("dropped = %d after overflow, want 3", got)
	}
	b.close(core.ErrEOS)
	b.inject(frameEntry{data: []byte{9}}, uthread.PriorityHigh)
	if got := b.dropped(); got != 4 {
		t.Fatalf("dropped = %d after post-close inject, want 4", got)
	}
}

// TestInboxWaiterWokenExactlyOnceAtClose: a puller blocked on an empty inbox
// is woken exactly once by close — no lost wake (it returns) and no
// duplicate wake (its queue is empty afterwards, even after a second close).
func TestInboxWaiterWokenExactlyOnceAtClose(t *testing.T) {
	s := uthread.New(uthread.WithClock(vclock.Real{}))
	s.AddExternalSource()
	b := newInbox(0)

	type outcome struct {
		err      error
		residual int
	}
	done := make(chan outcome, 1)
	th := s.Spawn("puller", uthread.PriorityNormal, func(th *uthread.Thread, m uthread.Message) uthread.Disposition {
		_, err := b.pop(th, nil)
		residual := 0
		for {
			if _, ok := th.TryReceive(nil); !ok {
				break
			}
			residual++
		}
		done <- outcome{err: err, residual: residual}
		return uthread.Terminate
	})
	s.Post(th, uthread.Message{Kind: kindTestKick})
	errc := s.RunBackground()

	// Wait until the puller is registered, then close twice.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		n := b.waiters.Len()
		b.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("puller never blocked on the inbox")
		}
		time.Sleep(50 * time.Microsecond)
	}
	b.close(core.ErrEOS)
	b.close(core.ErrEOS) // idempotent: must not wake anybody a second time

	res := <-done
	if !errors.Is(res.err, core.ErrEOS) {
		t.Fatalf("pop after close = %v, want core.ErrEOS", res.err)
	}
	if res.residual != 0 {
		t.Fatalf("%d residual messages after wake, want 0 (woken more than once)", res.residual)
	}
	s.ReleaseExternalSource()
	if err := <-errc; err != nil {
		t.Fatalf("scheduler: %v", err)
	}
}

// TestInboxInjectCloseRace hammers inject/close/pop concurrently (run under
// -race in CI): every injected frame is either delivered or counted as
// dropped, and the puller exits with EOS exactly once.
func TestInboxInjectCloseRace(t *testing.T) {
	const injectors = 4
	const perInjector = 200
	s := uthread.New(uthread.WithClock(vclock.Real{}))
	s.AddExternalSource()
	b := newInbox(8)

	received := make(chan int, 1)
	th := s.Spawn("puller", uthread.PriorityNormal, func(th *uthread.Thread, m uthread.Message) uthread.Disposition {
		n := 0
		for {
			_, err := b.pop(th, nil)
			if err != nil {
				if !errors.Is(err, core.ErrEOS) {
					t.Errorf("pop: %v", err)
				}
				break
			}
			n++
		}
		received <- n
		return uthread.Terminate
	})
	s.Post(th, uthread.Message{Kind: kindTestKick})
	errc := s.RunBackground()

	var wg sync.WaitGroup
	for i := 0; i < injectors; i++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for j := 0; j < perInjector; j++ {
				b.inject(frameEntry{data: []byte{seed, byte(j)}}, uthread.PriorityHigh)
			}
		}(byte(i))
	}
	// Concurrent observers of the counters (the race detector's food).
	stopObs := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopObs:
				return
			default:
				_ = b.length()
				_ = b.dropped()
			}
		}
	}()
	wg.Wait()
	b.close(core.ErrEOS)
	got := <-received
	close(stopObs)
	s.ReleaseExternalSource()
	if err := <-errc; err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	total := int64(injectors * perInjector)
	if int64(got)+b.dropped() != total {
		t.Fatalf("received %d + dropped %d != injected %d (frames lost untracked)", got, b.dropped(), total)
	}
}
