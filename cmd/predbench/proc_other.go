//go:build !linux

package main

import (
	"os"
	"os/exec"
)

// Off Linux the benchmark still builds and runs, without the parent-death
// signal and without peak_rss_mb (no /proc; ru_maxrss units differ by
// platform).
func dieWithParent(*exec.Cmd) {}

func maxRSSMB(*os.ProcessState) float64 { return 0 }

func resetPeakRSS() {}

func peakRSSMB() (float64, error) { return 0, nil }
