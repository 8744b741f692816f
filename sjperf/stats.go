package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// sample is a set of raw per-operation measurements. Percentiles are
// taken by nearest rank over the raw values, so every reported quantile
// is a value that was actually measured, never an interpolation.
type sample []float64

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// and how many samples lie strictly above its rank.
func (s sample) percentile(p float64) (value float64, beyond int) {
	if len(s) == 0 {
		return 0, 0
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

func (s sample) median() float64 {
	v, _ := s.percentile(50)
	return v
}

// host describes the machine a result was measured on.
type host struct {
	NProc         int    `json:"nproc"`
	CPU           string `json:"cpu"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	ServerCommand string `json:"server_command"`
	// CPUShares splits the machine's CPU time during the timed phase;
	// a high steal share means the hypervisor ran other guests on this
	// machine's cores, which slows every timing of the run.
	CPUShares cpuShares `json:"cpu_during_timed_phase"`
}

// cpuTimes is the aggregate CPU line of /proc/stat, in clock ticks.
type cpuTimes struct{ busy, idle, steal int64 }

type cpuShares struct {
	Busy  float64 `json:"busy"`
	Idle  float64 `json:"idle"`
	Steal float64 `json:"steal"`
}

func (c cpuShares) String() string {
	return fmt.Sprintf("busy=%.3f idle=%.3f steal=%.3f", c.Busy, c.Idle, c.Steal)
}

// readCPU reads /proc/stat; on a host without it every count is 0.
func readCPU() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	// Fields: user nice system idle iowait irq softirq steal.
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]}
}

func (c cpuTimes) sharesSince(prev cpuTimes) cpuShares {
	busy, idle, steal := c.busy-prev.busy, c.idle-prev.idle, c.steal-prev.steal
	total := float64(busy + idle + steal)
	if total <= 0 {
		return cpuShares{}
	}
	return cpuShares{Busy: float64(busy) / total, Idle: float64(idle) / total, Steal: float64(steal) / total}
}

func describeHost(serverArgs []string) host {
	return host{
		NProc:         runtime.NumCPU(),
		CPU:           cpuModel(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		ServerCommand: strings.Join(serverArgs, " "),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (h host) String() string {
	return fmt.Sprintf("host nproc=%d cpu=%q go=%s gomaxprocs=%d server=%q",
		h.NProc, h.CPU, h.GoVersion, h.GOMAXPROCS, h.ServerCommand)
}
