package netpipe

import (
	"errors"
	"net"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// TestPrioFramesThroughReader drives priority-tagged and untagged frames
// through the real sender and reader paths: send on one end of a pipe,
// readFrames injecting into the inbox on the other, a consumer thread
// popping.  Order and payloads survive, the stream ends on the EOS frame.
func TestPrioFramesThroughReader(t *testing.T) {
	server, client := net.Pipe()
	sched := uthread.New(uthread.WithClock(vclock.Real{}))
	rx := NewTCPReceiverLink(server, sched, "rx", 0)
	tx := NewTCPSenderLink(client)

	var got []string
	var popErr error
	th := sched.Spawn("pop", uthread.PriorityNormal, func(th *uthread.Thread, m uthread.Message) uthread.Disposition {
		for {
			e, err := rx.inbox.pop(th, nil)
			if err != nil {
				popErr = err
				return uthread.Terminate
			}
			got = append(got, string(e.data))
		}
	})
	sched.Post(th, uthread.Message{Kind: kindTestKick})
	done := sched.RunBackground()

	if err := tx.send(dataHeader(uthread.PriorityControl), []byte("express")); err != nil {
		t.Fatalf("send tagged: %v", err)
	}
	if err := tx.send(dataHeader(uthread.PriorityNormal), []byte("default")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := tx.send(dataHeader(uthread.PriorityHigh), []byte("urgent")); err != nil {
		t.Fatalf("send tagged: %v", err)
	}
	if err := tx.send(frameHeader{kind: kindEOS}, nil); err != nil {
		t.Fatalf("send EOS: %v", err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("scheduler: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer never drained the tagged stream")
	}
	if len(got) != 3 || got[0] != "express" || got[1] != "default" || got[2] != "urgent" {
		t.Fatalf("received %q, want [express default urgent]", got)
	}
	if !errors.Is(popErr, core.ErrEOS) {
		t.Fatalf("stream ended with %v, want core.ErrEOS", popErr)
	}
	_ = tx.Close()
	_ = rx.Close()
}

// TestDurableJournalKeepsPriority: the replay journal records the header
// each entry was sent with, so frames replayed after a redial keep the
// tenant's priority tag (replayLocked writes e.hdr back out).
// Default-priority entries journal no priority bit, so a QoS-unaware stream
// stays untagged on the wire even across replays.
func TestDurableJournalKeepsPriority(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	go func() {
		// Discard whatever the sender writes; the test only inspects the
		// journal.
		buf := make([]byte, 1<<10)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()

	sched := uthread.New(uthread.WithClock(vclock.Real{}))
	tx := NewDurableTCPSenderLink(client, DurableConfig{JournalLimit: 8})

	var sendErr error
	th := sched.Spawn("send", uthread.PriorityHigh, func(th *uthread.Thread, m uthread.Message) uthread.Disposition {
		if err := tx.sendDurableWith(th, nil, nil, dataHeader(uthread.PriorityHigh).withSeq(0, 1), []byte("tagged")); err != nil {
			sendErr = err
			return uthread.Terminate
		}
		sendErr = tx.sendDurableWith(th, nil, nil, dataHeader(uthread.PriorityNormal).withSeq(0, 2), []byte("plain"))
		return uthread.Terminate
	})
	sched.Post(th, uthread.Message{Kind: kindTestKick})
	if err := sched.Run(); err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	if sendErr != nil {
		t.Fatalf("sendDurable: %v", sendErr)
	}

	tx.mu.Lock()
	entries := append([]laneEntry(nil), tx.dur.journal...)
	tx.mu.Unlock()
	if len(entries) != 2 {
		t.Fatalf("journal holds %d entries, want 2", len(entries))
	}
	tagged := frameHeader{kind: kindData, flags: flagPrio | flagSeq, prio: prioByte(uthread.PriorityHigh), seq: 1}
	if entries[0].hdr != tagged || string(entries[0].data) != "tagged" {
		t.Fatalf("entry 1 hdr=%+v data=%q, want hdr=%+v data=tagged", entries[0].hdr, entries[0].data, tagged)
	}
	plain := frameHeader{kind: kindData, flags: flagSeq, seq: 2}
	if entries[1].hdr != plain || string(entries[1].data) != "plain" {
		t.Fatalf("entry 2 hdr=%+v data=%q, want untagged hdr=%+v data=plain", entries[1].hdr, entries[1].data, plain)
	}
	_ = tx.Close()
}
