package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks for d. The runtime's timers wake a millisecond
// late here when the process is otherwise idle (its poller waits in whole
// milliseconds), which would swamp a 0.1 ms request timed from its due
// time; nanosleep(2) overshoots by well under 0.1 ms.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake only makes the request late, which is recorded
}
