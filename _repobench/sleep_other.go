//go:build !linux

package main

import "time"

// sleepFor blocks for d.
func sleepFor(d time.Duration) { time.Sleep(d) }
