//go:build !linux

package main

import "time"

// Only Linux's CPU clocks are read. Elsewhere they read 0, and run
// refuses to start.
func processCPU() time.Duration { return 0 }

func threadCPU() time.Duration { return 0 }
