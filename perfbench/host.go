package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// hostStats are Go runtime totals read at pass boundaries.
type hostStats struct {
	allocBytes uint64
	gcCount    uint32
	gcPauseNs  uint64
}

// readHost reads the runtime's allocation and GC totals. ReadMemStats
// stops the world, so only traced runs read them, and only between
// operations.
func readHost(enabled bool) hostStats {
	if !enabled {
		return hostStats{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostStats{allocBytes: ms.TotalAlloc, gcCount: ms.NumGC, gcPauseNs: ms.PauseTotalNs}
}

// heapAllocs returns the bytes allocated on the heap since the process
// started. Unlike ReadMemStats it does not stop the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h hostStats) sub(o hostStats) hostStats {
	return hostStats{h.allocBytes - o.allocBytes, h.gcCount - o.gcCount, h.gcPauseNs - o.gcPauseNs}
}

func (h hostStats) add(o hostStats) hostStats {
	return hostStats{h.allocBytes + o.allocBytes, h.gcCount + o.gcCount, h.gcPauseNs + o.gcPauseNs}
}

// resetPeakRSS resets the process's resident-memory high-water mark to
// its current size (Linux 4.0 and later), so the next peakRSSMB reads
// the peak since this call. Where the reset is not supported the mark
// covers the whole run.
func resetPeakRSS() {
	// A failed reset leaves the lifetime mark, which is still a peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size in MB, from
// /proc/self/status (VmHWM), or 0 where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
