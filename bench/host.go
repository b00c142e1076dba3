package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostFacts travel with every result so two sets of numbers can be
// told apart by where they were taken.
type hostFacts struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Governor   string `json:"governor"`
}

func readHost() hostFacts {
	h := hostFacts{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease", "unknown"),
		Governor:   firstLine("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "unreadable"),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func firstLine(path, fallback string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return fallback
	}
	return strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0])
}

// calibSink keeps results alive so probes and the calibration kernel
// cannot be optimised away.
var calibSink uint64

var calibTable [1 << 15]uint64

// kernelIters is the length of one calibration kernel run; -quick
// shortens it so the package's test stays fast.
var kernelIters = 4_000_000

// kernelNominal is what one kernel run takes, in nanoseconds, on the
// box the baseline was taken on. Every end-to-end time is reported as
// measured × kernelNominal ÷ the kernel time measured beside it: the
// time the work would have taken had the host run at its nominal speed.
const kernelNominal = 25e6

// kernelRun times one run of a fixed pure-Go kernel — xorshift
// arithmetic mixed with dependent lookups in a 256 KiB table, the shape
// of the H3 and bitmap inner loops — and returns it in nanoseconds,
// scaled to the full kernel length (≈ 25 ms).
//
// It is run between passes, not around windows. This shared box changes
// speed by 10–25 % for seconds to minutes at a time, and a replay pass
// and the kernel slow down together (correlation ≈ 0.8 over two
// minutes): dividing each pass by the kernel run next to it brought the
// spread of a 20 s window's median from 4.4 % to 1.7 % in twelve
// back-to-back windows. Two point calibrations around a window, by
// contrast, disagreed by more than 5 % about every other window and
// said nothing about the window between them.
func kernelRun() float64 {
	table := &calibTable
	if table[0] == 0 {
		x := uint64(0x9e3779b97f4a7c15)
		for i := range table {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[i] = x
		}
	}
	t := time.Now()
	acc := table[1]
	for i := 0; i < kernelIters; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
		acc += table[acc&(1<<15-1)]
	}
	calibSink += acc
	return float64(time.Since(t).Nanoseconds()) * 4_000_000 / float64(kernelIters)
}

// hostSpeed collects the kernel runs taken beside a measurement.
type hostSpeed struct {
	last    float64   // the most recent kernel run
	samples []float64 // every kernel run, ns
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{}
	h.last = kernelRun()
	h.samples = append(h.samples, h.last)
	return h
}

// factor runs the kernel again and returns what a time measured since
// the previous run must be multiplied by to read at nominal host speed:
// kernelNominal over the mean of the runs on either side of it.
func (h *hostSpeed) factor() float64 {
	k := kernelRun()
	f := kernelNominal / ((h.last + k) / 2)
	h.last = k
	h.samples = append(h.samples, k)
	return f
}

// cpuSeconds returns the CPU time this process has used, from the
// process CPU clock (nanosecond resolution, where getrusage moves in
// scheduler ticks).
func cpuSeconds() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// resetPeakRSS clears this process's VmHWM, so that rss_mb of a
// workload run after another in one process (-aa) is its own peak.
// Where the kernel refuses, the first workload's peak stands.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // failure only widens rss_mb in -aa
}

// procStatusMB reads a kB-valued field (VmHWM, VmRSS) of a process's
// /proc status file, in MB; pid "self" is this process.
func procStatusMB(pid, field string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// procCPUSeconds reads the CPU time another process has used: the sum
// of its threads' on-CPU nanoseconds from /proc/<pid>/task/*/schedstat,
// or, where the kernel keeps no schedstats, utime+stime from
// /proc/<pid>/stat (clock ticks of 10 ms).
func procCPUSeconds(pid int) float64 {
	tasks, _ := filepath.Glob("/proc/" + strconv.Itoa(pid) + "/task/*/schedstat")
	var ns float64
	for _, t := range tasks {
		if b, err := os.ReadFile(t); err == nil {
			if f := strings.Fields(string(b)); len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				ns += v
			}
		}
	}
	if ns > 0 {
		return ns / 1e9
	}
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields are counted after its
	// closing parenthesis. utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// gcCPUSeconds returns the CPU time the garbage collector has used.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
