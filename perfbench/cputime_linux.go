package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The kernel's per-task run time, which these clocks read, leaves out
// the time the hypervisor gave the VM's CPUs to other guests (steal
// time, with CONFIG_PARAVIRT_TIME_ACCOUNTING as in the usual KVM guest
// kernels). The CPU figures therefore hold still on a busy shared host,
// where wall-clock latency follows the neighbours.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU clock; 0 means it cannot be read.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time all threads of the process have run.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling OS thread has run; the caller
// keeps its goroutine on that thread with runtime.LockOSThread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
