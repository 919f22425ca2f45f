package main

// The idle-priority load. On the reference host (a 2-vCPU virtual machine
// on a shared host) the hypervisor is slow to run a vCPU again after it has
// gone idle, and every op of this closed-loop benchmark idles a CPU many
// times: the client waits for zmeshd, zmeshd waits for the client, and the
// daemon's collector and idle Ps park and wake. How slow that is follows the
// host's load, which moves in episodes of tens of seconds, and every timing
// followed it: fields2d-auto-sz's write p50 ranged 174-266 ms over six runs
// of one commit. A run therefore keeps every CPU busy with a spinning
// thread per CPU under SCHED_IDLE, which the kernel runs only when nothing
// else on that CPU is runnable and preempts as soon as the client or zmeshd
// wakes; six runs with the load, alternated with those six, ranged
// 204-224 ms. See README.md, "The idle load".

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	idleLoadReady = "loopbench: idle load spinning"
	schedIdle     = 5 // SCHED_IDLE from <sched.h>
)

// idleLoadMain is the idle-load subcommand: one spinning thread per CPU,
// each under SCHED_IDLE before it spins. It prints idleLoadReady once every
// thread spins and runs until killed; a thread whose policy cannot be set
// ends the process instead of spinning at normal priority.
func idleLoadMain() error {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1)
	errc := make(chan error, n)
	var ready sync.WaitGroup
	ready.Add(n)
	for c := 0; c < n; c++ {
		go func() {
			runtime.LockOSThread()
			if err := setIdlePolicy(); err != nil {
				errc <- fmt.Errorf("SCHED_IDLE: %w", err)
				return
			}
			ready.Done()
			x := uint64(c + 1)
			for {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
		}()
	}
	go func() {
		ready.Wait()
		fmt.Println(idleLoadReady)
	}()
	return <-errc
}

// setIdlePolicy puts the calling thread under SCHED_IDLE.
func setIdlePolicy() error {
	var param struct{ priority int32 }
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	if e != 0 {
		return e
	}
	return nil
}

// startIdleLoad starts the idle-load subcommand and returns once it spins;
// stop kills it and waits for it to end.
func startIdleLoad() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "idle-load")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the idle load: %w", err)
	}
	stop = func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	readyc := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(out)
		readyc <- sc.Scan() && sc.Text() == idleLoadReady
	}()
	select {
	case ok := <-readyc:
		if ok {
			return stop, nil
		}
	case <-time.After(10 * time.Second):
	}
	stop()
	return nil, errors.New("the idle load did not start spinning")
}
