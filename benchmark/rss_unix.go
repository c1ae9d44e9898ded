//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSSMB is this process's high-water resident set. ru_maxrss is
// kilobytes on Linux and bytes on Darwin.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / 1024
}
