package vclock

import (
	"testing"
	"time"
)

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Fatalf("Now = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	target := Epoch.Add(5 * time.Second)
	v.Advance(target)
	if !v.Now().Equal(target) {
		t.Fatalf("Now = %v, want %v", v.Now(), target)
	}
	// Monotonic: moving backwards is a no-op.
	v.Advance(Epoch)
	if !v.Now().Equal(target) {
		t.Fatalf("Now = %v after backwards Advance, want %v", v.Now(), target)
	}
}

func TestVirtualAdvanceBy(t *testing.T) {
	v := NewVirtualAt(Epoch)
	got := v.AdvanceBy(time.Minute)
	if want := Epoch.Add(time.Minute); !got.Equal(want) {
		t.Fatalf("AdvanceBy = %v, want %v", got, want)
	}
	// Negative durations do not move the clock.
	got = v.AdvanceBy(-time.Hour)
	if want := Epoch.Add(time.Minute); !got.Equal(want) {
		t.Fatalf("AdvanceBy(-1h) = %v, want %v", got, want)
	}
}

func TestVirtualWaitUntilAdvances(t *testing.T) {
	v := NewVirtual()
	target := Epoch.Add(time.Second)
	if !v.WaitUntil(target, nil) {
		t.Fatal("WaitUntil = false, want true")
	}
	if !v.Now().Equal(target) {
		t.Fatalf("Now = %v, want %v", v.Now(), target)
	}
}

func TestVirtualWaitUntilInterrupted(t *testing.T) {
	v := NewVirtual()
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	if v.WaitUntil(Epoch.Add(time.Second), wake) {
		t.Fatal("WaitUntil = true, want false when wake pending")
	}
	if !v.Now().Equal(Epoch) {
		t.Fatalf("clock moved to %v on interrupted wait", v.Now())
	}
}
