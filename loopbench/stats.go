package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

func sumDur(d []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (its default "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// hostProbe times two fixed kernels that touch no part of the program: an
// integer/floating-point loop in registers (cpu) and passes over a 64 MiB
// buffer (mem). Together they tell a slow host episode apart from a slower
// program; the memory kernel tracks episodes that only slow memory-bound
// work. Each is the median of five repetitions, in ms.
func hostProbe() (cpu, mem float64) {
	var cpuT, memT []float64
	buf := make([]uint64, 8<<20)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		x, f := uint64(rep), 1.0
		for i := 0; i < 16_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = f*1.0000001 + float64(x&1023)*1e-9
		}
		cpuT = append(cpuT, ms(time.Since(t0)))
		t0 = time.Now()
		for pass := 0; pass < 4; pass++ {
			for i := range buf {
				buf[i] += x
			}
		}
		memT = append(memT, ms(time.Since(t0)))
		probeSink += float64(x&1) + f + float64(buf[len(buf)-1]&1)
	}
	return median(cpuT), median(memT)
}

// probeSink keeps the probe's results live so the loops are not removed.
var probeSink float64

// cpuTicks reads the machine-wide steal and total CPU ticks from the first
// line of /proc/stat. Steal is time the hypervisor ran something else while
// this machine's CPUs had work: it stretches every wall-clock metric without
// showing in the daemon's own CPU time.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
