//go:build !linux

package main

import "time"

// preciseSleep blocks for d; see sleep_linux.go for why Linux does not
// use the runtime's timers.
func preciseSleep(d time.Duration) { time.Sleep(d) }
