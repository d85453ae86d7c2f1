package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference VM shares its host: for seconds to minutes at a time the
// same code runs 20 to 100 % slower, by a factor that depends on the
// host's other tenants and on the code (a chain of dependent floating-point
// operations slows by a quarter at most, branching and cache-touching code
// by up to twice), and a thread woken on another core waits for the host to
// schedule that core. Both moved a run's timings by more than any change to
// the program would. The benchmark therefore does two things, described in
// README.md under "Steadiness": it runs on one CPU, where hand-offs between
// goroutines and processes are context switches and never wake-ups across
// cores, and it times a fixed calibration loop in between its operations
// and reports every time scaled to the speed the loop ran at.

// The calibration loop is code of the kind the workloads run, and none of
// theirs: calibTrips round trips of one byte through a pipe (kernel entry
// and exit, copies, branches) and calibUpdates updates each of a small and
// of a large hash map (hashing, probing, loads and stores within and beyond
// the first-level cache). It allocates nothing: a loop that allocates
// tracks the workloads a little better still, but only because the
// program's own collector slows both, and then a change to the program's
// allocations would move the scale. README.md records how it was chosen.
const (
	calibTrips   = 100
	calibUpdates = 3000
	calibSmall   = 10 // the small map has 1<<10 keys, the large 1<<14
	calibLarge   = 14
)

// calibRefS is what the loop takes on the reference VM in its usual state.
// Times are scaled to it, so a run in that state reports what it measured.
const calibRefS = 200e-6

// calibGap is how much measured time may pass between two calibrations:
// the loop then takes a few percent of a run.
const calibGap = 8 * time.Millisecond

// calibrator holds what the calibration loop works on. Every goroutine that
// calibrates has its own.
type calibrator struct {
	pipe         [2]int
	small, large map[uint64]uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		small: make(map[uint64]uint64, 1<<calibSmall),
		large: make(map[uint64]uint64, 1<<calibLarge),
	}
	if err := syscall.Pipe2(c.pipe[:], syscall.O_CLOEXEC); err != nil {
		fatal(1, "calibration pipe: %v", err)
	}
	return c
}

func (c *calibrator) close() {
	syscall.Close(c.pipe[0])
	syscall.Close(c.pipe[1])
}

// run runs the calibration loop once and returns its time in seconds.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	var b [1]byte
	for i := 0; i < calibTrips; i++ {
		syscall.Write(c.pipe[1], b[:])
		syscall.Read(c.pipe[0], b[:])
	}
	calibUpdate(c.small, calibSmall)
	calibUpdate(c.large, calibLarge)
	return time.Since(t0).Seconds()
}

// calibUpdate empties m and updates it at calibUpdates pseudo-random keys
// of the given width.
func calibUpdate(m map[uint64]uint64, bits int) {
	clear(m)
	x := uint64(1)
	for i := 0; i < calibUpdates; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>(64-bits)] += x
	}
}

// runN returns n calibrations.
func (c *calibrator) runN(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = c.run()
	}
	return out
}

// clockScale is the factor that turns a time measured while the loop took
// calibS into the time at the reference speed.
func clockScale(calibS float64) float64 {
	if calibS <= 0 {
		return 1
	}
	return calibRefS / calibS
}

// pinnedEnv marks a process that has already restarted on its one CPU.
const pinnedEnv = "BENCH_PINNED_CPU"

// pinToOneCPU restricts the process to the last CPU it may run on and
// restarts it there, so that the Go runtime starts with that one CPU
// (GOMAXPROCS 1) and every thread and every rank process inherits it. If
// the kernel refuses, the run goes on with GOMAXPROCS 1 on whatever CPU
// the scheduler picks.
func pinToOneCPU() {
	if os.Getenv(pinnedEnv) != "" {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	err := func() error {
		var mask [16]uint64 // 1024 CPUs
		size := unsafe.Sizeof(mask)
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); e != 0 {
			return e
		}
		cpu := -1
		for i := range mask {
			for b := 0; b < 64; b++ {
				if mask[i]&(1<<b) != 0 {
					cpu = i*64 + b
				}
			}
		}
		if cpu < 0 {
			return fmt.Errorf("empty affinity mask")
		}
		mask = [16]uint64{}
		mask[cpu/64] = 1 << (cpu % 64)
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); e != 0 {
			return e
		}
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		// The affinity of the calling thread survives exec.
		return syscall.Exec(exe, os.Args, append(os.Environ(), fmt.Sprintf("%s=%d", pinnedEnv, cpu)))
	}()
	fmt.Fprintf(os.Stderr, "bench: cannot restart on one CPU (%v); running with GOMAXPROCS 1 unpinned\n", err)
	runtime.GOMAXPROCS(1)
}
