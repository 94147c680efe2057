package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ steal, total uint64 }

// readCPUStat reads the host-wide CPU counters; ok is false where
// /proc/stat is unavailable.
func readCPUStat() (st cpuStat, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return st, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return st, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return st, false
	}
	// user nice system idle iowait irq softirq steal: guest time is
	// already folded into user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return st, false
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st, true
}

// stealShare is the share of host CPU time the hypervisor gave to other
// guests between two readings.
func stealShare(a, b cpuStat) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// spinIterations fixes the sentinel's work: about 20 ms on an idle core
// of a current x86 server.
const spinIterations = 20_000_000

var spinSink uint64

// spinMS times a fixed xorshift loop, five times, and returns the median
// in milliseconds. Nothing in it touches memory or the simulator, so a
// slower reading means the host gave this process less CPU.
func spinMS() float64 {
	var ms []float64
	for r := 0; r < 5; r++ {
		x := uint64(r) + 0x9e3779b97f4a7c15
		start := time.Now()
		for i := 0; i < spinIterations; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		spinSink += x
	}
	return median(ms)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// liveHeap collects garbage and returns the bytes still reachable. Its
// growth across a window is memory the program keeps between passes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runtimeSample is the Go runtime's allocation and GC state at one point.
type runtimeSample struct {
	mallocs, bytes, gcCycles uint64
	gcCPU, totalCPU          float64
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeMetrics)
	return runtimeSample{
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: runtimeMetrics[0].Value.Uint64(),
		gcCPU:    runtimeMetrics[1].Value.Float64(),
		totalCPU: runtimeMetrics[2].Value.Float64(),
	}
}

// sub returns the change from a to b.
func (b runtimeSample) sub(a runtimeSample) runtimeSample {
	return runtimeSample{
		mallocs:  b.mallocs - a.mallocs,
		bytes:    b.bytes - a.bytes,
		gcCycles: b.gcCycles - a.gcCycles,
		gcCPU:    b.gcCPU - a.gcCPU,
		totalCPU: b.totalCPU - a.totalCPU,
	}
}
