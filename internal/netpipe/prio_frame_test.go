package netpipe

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
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

	if err := tx.send(dataHeader(uthread.PriorityControl), []byte("express"), true); err != nil {
		t.Fatalf("send tagged: %v", err)
	}
	if err := tx.send(dataHeader(uthread.PriorityNormal), []byte("default"), true); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := tx.send(dataHeader(uthread.PriorityHigh), []byte("urgent"), true); err != nil {
		t.Fatalf("send tagged: %v", err)
	}
	if err := tx.send(frameHeader{kind: kindEOS}, nil, true); err != nil {
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
// tenant's priority tag (replay writes e.hdr back out).  Default-priority
// entries journal no priority bit, so a QoS-unaware stream stays untagged on
// the wire even across replays.
func TestDurableJournalKeepsPriority(t *testing.T) {
	tx := newLaneTx(journalLimit)
	for i, f := range []struct {
		prio uthread.Priority
		data string
	}{{uthread.PriorityHigh, "tagged"}, {uthread.PriorityNormal, "plain"}} {
		write, full, err := tx.admit(dataHeader(f.prio).withSeq(0, int64(i+1)), []byte(f.data), false)
		if !write || full || err != nil {
			t.Fatalf("admit %s: write=%v full=%v err=%v, want a journaled frame", f.data, write, full, err)
		}
	}
	var entries []laneEntry
	if err := tx.replay(func(h frameHeader, data []byte) error {
		entries = append(entries, laneEntry{h, data})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("replay wrote %d frames, want 2", len(entries))
	}
	tagged := frameHeader{kind: kindData, flags: flagPrio | flagSeq, prio: prioByte(uthread.PriorityHigh), seq: 1}
	if entries[0].hdr != tagged || string(entries[0].data) != "tagged" {
		t.Fatalf("entry 1 hdr=%+v data=%q, want hdr=%+v data=tagged", entries[0].hdr, entries[0].data, tagged)
	}
	plain := frameHeader{kind: kindData, flags: flagSeq, seq: 2}
	if entries[1].hdr != plain || string(entries[1].data) != "plain" {
		t.Fatalf("entry 2 hdr=%+v data=%q, want untagged hdr=%+v data=plain", entries[1].hdr, entries[1].data, plain)
	}
}

// TestSinkAtCarriesItsPriority: a sink made with NewSinkAt tags its frames
// with its own priority whatever the sending thread's (a split's lane port
// carries its tenant's priority from the trunk's pump thread); NewSink's
// frames from outside a pipeline stay untagged.
func TestSinkAtCarriesItsPriority(t *testing.T) {
	for _, tc := range []struct {
		name string
		prio uthread.Priority
		flag bool
	}{{"at high", uthread.PriorityHigh, true}, {"thread's", 0, false}} {
		server, client := net.Pipe()
		tx := NewTCPSenderLink(client)
		sink := tx.NewSinkAt("sink", tc.prio).(core.Consumer)
		pushed := make(chan error, 1)
		go func() { pushed <- sink.Push(nil, item.New([]byte("x"), 1, time.Time{})) }()
		var lenBuf [4]byte
		body, err := readFrame(bufio.NewReader(server), &lenBuf)
		if err != nil {
			t.Fatalf("%s: read: %v", tc.name, err)
		}
		h, _, ok := parseFrame(body)
		if !ok || h.kind != kindData {
			t.Fatalf("%s: not a data frame: %+v", tc.name, h)
		}
		if got := h.flags&flagPrio != 0; got != tc.flag || (got && h.prio != prioByte(tc.prio)) {
			t.Fatalf("%s: frame prio flag %v byte %d, want flag %v byte %d", tc.name, got, h.prio, tc.flag, prioByte(tc.prio))
		}
		if err := <-pushed; err != nil {
			t.Fatalf("%s: push: %v", tc.name, err)
		}
		_ = tx.Close()
		_ = server.Close()
	}
}
