package main

import (
	"os"
	"os/exec"
	"syscall"
)

// peakRSSMB is this process's peak resident memory (getrusage).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// childPeakRSSMB is an exited child's peak resident memory, from the
// rusage its wait returned.
func childPeakRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// dieWithParent makes the child get SIGKILL if the benchmark dies first,
// so a killed run leaves no daemon behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
