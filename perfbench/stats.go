package main

import (
	"math/bits"
	"os"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// latHist is a log-linear histogram of nanosecond durations: exact below
// 128 ns, then 128 linear sub-buckets per power of two, so a bucket is
// under 0.8% wide. It keeps the exact count and sum, and its memory is
// fixed, so recording allocates nothing. Not safe for concurrent use:
// each client owns one, and they merge after the run.
type latHist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64 // nanoseconds
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1 // v>>e is in [histSub, 2*histSub)
	return (e+1)*histSub + int(v>>e) - histSub
}

// histRange returns the lowest value of bucket i and its width.
func histRange(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub - 1
	m := uint64(i%histSub + histSub)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *latHist) add(d time.Duration) { h.addValue(uint64(max(d, 0))) }

func (h *latHist) addValue(v uint64) {
	h.counts[histBucket(v)]++
	h.n++
	h.sum += float64(v)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *latHist) mean() float64 { return ratio(h.sum, h.n) }

// quantile returns the q-quantile, interpolated by rank inside its
// bucket; 0 when the histogram is empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	last := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		last = i
		if cum+float64(c) >= rank {
			lo, w := histRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histRange(last)
	return lo + w
}

// procSample is the process's cumulative CPU time and allocated bytes,
// and the host's cumulative CPU ticks, in total and stolen by the
// hypervisor (0 where /proc/stat is not readable).
type procSample struct {
	cpu               time.Duration
	allocs            uint64
	hostTicks, stolen uint64
}

func readProc() procSample {
	var ru syscall.Rusage
	// Getrusage of the calling process cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	ps := procSample{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
	}
	ps.hostTicks, ps.stolen = hostTicks()
	return ps
}

// hostTicks reads the first line of /proc/stat: "cpu user nice system
// idle iowait irq softirq steal ...". It returns the sum of the first
// eight fields and the eighth, steal.
func hostTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// heapSampler tracks the peak live heap (the heap the last GC found
// reachable) while a phase runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const heapSampleEvery = 5 * time.Millisecond

func liveHeap() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		peak := liveHeap()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				h.done <- max(peak, liveHeap())
				return
			case <-t.C:
				peak = max(peak, liveHeap())
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
