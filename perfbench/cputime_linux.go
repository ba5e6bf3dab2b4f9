package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU returns the CPU time all of this process's threads have used:
// the host time the simulator actually ran, not counting time the machine
// gave to other processes.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
