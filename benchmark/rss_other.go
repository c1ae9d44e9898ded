//go:build !unix

package main

import "runtime"

// peakRSSMB falls back to the Go heap's footprint where getrusage is
// missing; it under-counts mapped store files.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
