package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// peakRSSMB is the process's peak resident set in MB: VmHWM where /proc has
// it, the Go runtime's own total otherwise. A diagnostic, never gated.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
