package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/device"
)

// stamp identifies the host and the inputs of one result.
type stamp struct {
	CPU             string  `json:"cpu"`
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	L2KiB           int     `json:"l2_kib"`
	L3KiB           int     `json:"l3_kib"`
	MemTotalMiB     int     `json:"mem_total_mib"`
	MemAvailableMiB int     `json:"mem_available_mib"`
	Go              string  `json:"go"`
	AVX2            string  `json:"avx2_dispatch"`
	NUMANodes       int     `json:"numa_nodes"`
	Stream          string  `json:"stream"`
	Workload        string  `json:"workload"`
	Seed            uint64  `json:"seed"`
	Seconds         float64 `json:"seconds"`
	Trace           int     `json:"trace"`
	FailRatio       float64 `json:"fail_ratio"`
	// StealFrac is the share of host CPU time the hypervisor gave to
	// other guests during the run, from /proc/stat.
	StealFrac float64 `json:"steal_frac"`
}

func collectStamp() stamp {
	st := stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		NUMANodes: device.Topo().Nodes(),
	}
	avx2 := false
	scanLines("/proc/cpuinfo", func(k, v string) bool {
		switch k {
		case "model name":
			st.CPU = v
		case "flags":
			avx2 = strings.Contains(" "+v+" ", " avx2 ")
			return false
		}
		return true
	})
	switch {
	case runtime.GOARCH != "amd64" || !avx2:
		st.AVX2 = "unsupported"
	case os.Getenv("QS_NOAVX2") != "":
		st.AVX2 = "off (QS_NOAVX2)"
	default:
		st.AVX2 = "on"
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		kib, err := strconv.Atoi(strings.TrimSuffix(readTrim(filepath.Join(d, "size")), "K"))
		if err != nil {
			continue
		}
		switch level {
		case "2":
			st.L2KiB = kib
		case "3":
			st.L3KiB = kib
		}
	}
	scanLines("/proc/meminfo", func(k, v string) bool {
		var kb int
		fmt.Sscanf(v, "%d kB", &kb)
		switch k {
		case "MemTotal":
			st.MemTotalMiB = kb / 1024
		case "MemAvailable":
			st.MemAvailableMiB = kb / 1024
		}
		return true
	})
	// A triad ceiling needs three arrays of at least 4× the LLC; on a host
	// shared with other jobs that is too much memory to take, so the
	// *_gbps metrics are absolute and the stamp states both sizes.
	st.Stream = fmt.Sprintf("not measured: a triad over 3 arrays of 4×LLC needs %d MiB; host has %d MiB",
		3*4*st.L3KiB/1024, st.MemTotalMiB)
	return st
}

func readTrim(path string) string {
	b, _ := os.ReadFile(path)
	return strings.TrimSpace(string(b))
}

// scanLines calls f with each "key: value" line of a procfs file until f
// returns false.
func scanLines(path string, f func(k, v string) bool) {
	fh, err := os.Open(path)
	if err != nil {
		return
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && !f(strings.TrimSpace(k), strings.TrimSpace(v)) {
			return
		}
	}
}

// cpuSteal returns the host's cumulative steal and total CPU ticks from
// the aggregate "cpu" line of /proc/stat (zeros where unavailable).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
