package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU restricts every thread of this process to the first CPU it
// is allowed on and sets GOMAXPROCS to 1. It returns that CPU and a
// function that undoes both.
//
// tcp-standing needs it. The workload keeps the box about 20% busy with
// thousands of short timer- and socket-driven wake-ups a second, and on
// two CPUs the kernel settles, for a block or for a whole run, into one
// of two placements of the Go runtime's threads: packed onto one CPU
// (about 1350 involuntary context switches and 0.33 s of CPU per 1.5 s
// block) or spread over both (about 300 and 0.45 s: every wake-up
// crosses CPUs, which in a VM is an inter-processor interrupt through
// the hypervisor, and the working set bounces between two caches). The
// same code read 2700 or 3750 us per sample depending on which one a run
// fell into, and message cost moved with it (113.7 or 109-111 messages
// per sample, because the two placements interleave the agents' ticks
// differently). The speed probe sees neither: it is one busy thread.
// One CPU leaves only the packed placement.
func pinToOneCPU() (cpu int, unpin func(), err error) {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed[0]))); e != 0 {
		return 0, nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu = -1
	for i := 0; i < 64*len(allowed) && cpu < 0; i++ {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, nil, fmt.Errorf("sched_getaffinity: empty mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinity(&one); err != nil {
		return 0, nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return cpu, func() {
		runtime.GOMAXPROCS(procs)
		_ = setAffinity(&allowed) // the mask it had was valid a moment ago
	}, nil
}

// setAffinity gives every thread of this process the mask. Affinity is
// per thread and inherited at thread creation, so it makes two passes
// over the thread list: a thread that a not yet visited thread started
// during the first pass is caught by the second, and by then every
// possible parent has the mask.
func setAffinity(mask *cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
				unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(&mask[0])))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited since
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return nil
}
