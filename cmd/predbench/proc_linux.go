package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"syscall"
)

// dieWithParent asks the kernel to kill the child should this process
// die first — the one exit path (SIGKILL, a test timeout's panic) that no
// deferred cleanup covers.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// maxRSSMB is the peak resident set of an exited process (Linux reports
// ru_maxrss in KiB).
func maxRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS starts this process's peak-RSS measurement afresh: freed
// heap goes back to the operating system and the kernel's high-water mark
// is reset. A peak over the process's whole life is set by whatever
// set-up's garbage reached before a collection (18 to 26 MB from run to
// run on a workload whose rounds need 19) and says nothing about the
// engine; a peak per round can be reported as a median over rounds. Where
// the kernel refuses the reset, every round reports the life-long peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's resident-set high-water mark since
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	_, rest, ok := bytes.Cut(status, []byte("VmHWM:"))
	if !ok {
		return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
	}
	fields := bytes.Fields(rest)
	if len(fields) < 2 || string(fields[1]) != "kB" {
		return 0, fmt.Errorf("unexpected VmHWM line in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(string(fields[0]), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM: %w", err)
	}
	return kb / 1024, nil
}
