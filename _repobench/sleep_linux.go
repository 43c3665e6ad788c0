//go:build linux

package main

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling goroutine's thread for d. time.Sleep rounds
// short waits up to the runtime timer's ~1 ms resolution, which would add
// most of a millisecond of generator lateness to every open-loop request
// at sub-millisecond spacing; nanosleep wakes within tens of
// microseconds.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
