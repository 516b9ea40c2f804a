package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo fingerprints the machine a result was measured on, so a timing
// is never compared with one from a different host unknowingly.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// cpuTimes returns the process's user and system CPU time.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// udpRcvbufErrors reads the kernel-wide count of UDP datagrams dropped
// because a socket's receive buffer was full (Udp RcvbufErrors in
// /proc/net/snmp). It is host-wide, so a delta over a run also counts other
// processes' drops; ok is false where the file is unavailable.
func udpRcvbufErrors() (n int64, ok bool) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, false
	}
	var header []string
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, name := range header {
			if name == "RcvbufErrors" && i < len(fields) {
				v, err := strconv.ParseInt(fields[i], 10, 64)
				return v, err == nil
			}
		}
		return 0, false
	}
	return 0, false
}
