package main

import (
	"bufio"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// maxRSSMB is this process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heldRSSMB is this process's resident set size once garbage is
// collected and freed memory returned to the kernel: what the live
// state holds, heap and touched file mappings alike.
func heldRSSMB() (float64, error) {
	settle()
	return procMB("self", "VmRSS")
}

// settle collects garbage and returns freed memory to the kernel, so a
// following RSS reading or peak reset starts from the live state.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// procMB reads a kB field of /proc/<pid>/status (VmRSS, VmHWM) in MB;
// pid "self" is this process.
func procMB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading %s: %w", field, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// resetPeakRSS restarts a process's peak-RSS (VmHWM) tracking from its
// current RSS. Where the kernel refuses, VmHWM stays the lifetime peak:
// a coarser reading, not a wrong one, so the refusal is ignored.
func resetPeakRSS(pid string) {
	_ = os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// childMaxRSSMB is an exited child's peak resident set size.
func childMaxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// killedBy reports whether an exited process was ended by sig.
func killedBy(ps *os.ProcessState, sig syscall.Signal) bool {
	ws, ok := ps.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

// writtenBytes is the number of bytes this process has passed to
// write-type system calls (wchar in /proc/self/io).
func writtenBytes() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("reading write counter: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing wchar: %w", err)
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("no wchar in /proc/self/io")
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// schedFIFO is sched_setscheduler's SCHED_FIFO policy.
const schedFIFO = 1

// preciseThread makes the calling thread wake on time: timer slack cut
// to 1 ns, so a kernel sleep ends when asked rather than up to 50 µs
// later, and the lowest real-time priority, so a wake-up preempts the
// server's query work instead of waiting out its time slice (on two
// busy cores that wait reaches milliseconds). It reports whether the
// real-time policy was granted; without it the generator still runs,
// and the lag check shows what that cost. The caller must hold its OS
// thread and never release it, so the thread dies with its goroutine
// rather than returning to the pool with its priority.
func preciseThread() bool {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	param := struct{ priority int32 }{1}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&param)))
	return errno == 0
}

// dialBlocking connects to an IPv4 host:port over TCP with Nagle off
// and returns the socket in blocking mode. A read then sleeps in the
// kernel, which wakes the (precise) thread itself when the response
// arrives; a socket on Go's network poller would instead wake a poller
// thread that then has to wake the locked thread, two wake-ups on the
// path being timed.
func dialBlocking(addr string) (*os.File, error) {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil || !ap.Addr().Is4() {
		return nil, fmt.Errorf("want an IPv4 host:port, got %q", addr)
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("TCP_NODELAY: %w", err)
	}
	if err := syscall.Connect(fd, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("connect: %w", err)
	}
	// A blocking descriptor gives a File that is not on the poller.
	return os.NewFile(uintptr(fd), addr), nil
}

// spinWindow is the final stretch before a due time that sleepUntil
// spins through instead of sleeping.
const spinWindow = 100 * time.Microsecond

// sleepUntil returns at t: it sleeps in the kernel (not on the Go
// timer, whose wake-ups are coarser than the latencies measured) until
// spinWindow before t, then spins.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just re-enters the loop
		}
	}
}
