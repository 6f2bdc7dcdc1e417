package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// procStats is what the benchmark measures of one finished child process
// from outside it: wall-clock lifetime, CPU from rusage, peak RSS and the
// kernel's write accounting.
type procStats struct {
	// Wall is the wall-clock lifetime less Steal.
	Wall time.Duration
	// Steal is the time the hypervisor ran something else on this
	// machine's CPUs during the lifetime, averaged over the CPUs.
	Steal      time.Duration
	CPU        time.Duration // user + system
	MaxRSSMB   float64
	WChar      int64 // bytes passed to write-family syscalls
	WriteBytes int64 // bytes the process caused to be sent to storage
	Stdout     []byte
}

// runChild runs name with args to completion and measures it. A non-zero
// exit is an error carrying the tail of the child's stderr.
func runChild(name string, args ...string) (*procStats, error) {
	cmd := exec.Command(name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	steal0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pid := cmd.Process.Pid
	// Wait for the exit without reaping, so /proc/<pid>/io still holds
	// the child's final write counters.
	waitErr := waitExited(pid)
	wall := time.Since(start)
	steal1, stealErr := hostSteal()
	wchar, wbytes, ioErr := readProcIO(pid)
	err = cmd.Wait()
	if waitErr != nil {
		return nil, fmt.Errorf("waitid: %w", waitErr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, tail(stderr.String(), 400))
	}
	if ioErr != nil {
		return nil, ioErr
	}
	if stealErr != nil {
		return nil, stealErr
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return &procStats{
		Wall:       wall - (steal1 - steal0),
		Steal:      steal1 - steal0,
		CPU:        cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		MaxRSSMB:   float64(ru.Maxrss) / 1024, // ru_maxrss is in KiB on Linux
		WChar:      wchar,
		WriteBytes: wbytes,
		Stdout:     stdout.Bytes(),
	}, nil
}

// waitExited blocks until process pid has exited, leaving it unreaped.
func waitExited(pid int) error {
	const pPID, wNOWAIT = 1, 0x01000000
	var siginfo [128]byte // siginfo_t; only its size matters here
	for {
		_, _, e := syscall.Syscall6(syscall.SYS_WAITID, pPID, uintptr(pid),
			uintptr(unsafe.Pointer(&siginfo[0])), syscall.WEXITED|wNOWAIT, 0, 0)
		if e != syscall.EINTR {
			if e != 0 {
				return e
			}
			return nil
		}
	}
}

// readProcIO returns the wchar and write_bytes counters of /proc/<pid>/io.
func readProcIO(pid int) (wchar, writeBytes int64, err error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/%d/io: %w", pid, err)
		}
		switch k {
		case "wchar":
			wchar = n
		case "write_bytes":
			writeBytes = n
		}
	}
	return wchar, writeBytes, sc.Err()
}

// hostSteal returns the CPU time the hypervisor has taken from this
// machine so far: the steal column of /proc/stat, summed over the CPUs and
// divided by their number. On a shared host a stolen CPU stretches a
// command's wall-clock time by about that much without the command doing
// any more work, and episodes of heavy steal last minutes, longer than a
// benchmark run.
func hostSteal() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(string(b))
}

// parseSteal returns the mean steal time per CPU of a /proc/stat text.
func parseSteal(stat string) (time.Duration, error) {
	var ticks, cpus int64
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		// Per-CPU lines are "cpuN user nice system idle iowait irq
		// softirq steal ..."; the aggregate "cpu" line is skipped.
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		n, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/stat: %w", err)
		}
		ticks += n
		cpus++
	}
	if cpus == 0 {
		return 0, fmt.Errorf("/proc/stat: no per-CPU lines")
	}
	return time.Duration(ticks) * time.Second / clkTck / time.Duration(cpus), nil
}

// clkTck is USER_HZ, the unit of /proc's CPU times, fixed at 100 on Linux.
const clkTck = 100

// procCPU returns the user+system CPU a live process has used so far,
// from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(b)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	var ticks int64
	for _, f := range rest[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clkTck, nil
}

// procHWM returns a live process's peak resident set size in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}
