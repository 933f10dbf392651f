//go:build !linux

package vclock

import "time"

// WaitUntil implements Clock.
func (Real) WaitUntil(t time.Time, wake <-chan struct{}) bool {
	return timerWait(t, wake)
}
