package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time of the calling OS thread, so callers lock
// their goroutine to its thread. Time the hypervisor steals from the
// virtual CPU is not charged to it, unlike wall time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// The host's speed drifts: on a shared virtual machine the same binary's
// CPU time per message moved by up to a third between runs minutes apart.
// The synchronous workload therefore times a fixed calibration loop,
// unrelated to the program, before every pass, and scales the pass's
// CPU-bound figures to a reference speed: a host on which the loop takes
// refCalibration of CPU (a shared 2-vCPU virtual machine took
// 8 to 14 ms). The raw figures are reported beside the scaled ones.
const (
	refCalibration   = 10 * time.Millisecond
	calibrationWords = 1 << 18 // 2 MiB working set: beyond a core's private caches
	calibrationSteps = 2_000_000
)

var calibrationSink uint64

// calibrationLoop runs the fixed loop once and returns the calling
// thread's CPU time for it; callers lock their goroutine to its thread.
// It allocates nothing, so the program's heap cannot change its cost.
func calibrationLoop(buf []uint64) time.Duration {
	t0 := threadCPU()
	x, acc := uint64(88172645463325252), uint64(0)
	mask := uint64(len(buf) - 1)
	for i := 0; i < calibrationSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		buf[j] += x
		acc += buf[(j*7+1)&mask]
	}
	calibrationSink += acc
	return threadCPU() - t0
}

// Runtime counters read through runtime/metrics.
const (
	mAllocs   = "/gc/heap/allocs:objects"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mHeapLive = "/gc/heap/live:bytes"
)

// procSample is one reading of the process-wide counters a window is
// measured by.
type procSample struct {
	cpu    time.Duration
	allocs uint64
	gcCPU  float64
}

func readProc() procSample {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}}
	metrics.Read(s)
	return procSample{cpu: cpuTime(), allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64()}
}

// heapLive returns the bytes of heap objects the latest garbage collection
// found live. Unlike all heap objects, it leaves out garbage not yet
// collected, whose amount follows the collector's pacing (a heap goal of
// at least 4 MB) rather than what the program holds.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapLiveNow collects garbage and returns the live heap: the baseline a
// heap figure is measured from.
func heapLiveNow() uint64 {
	runtime.GC()
	return heapLive()
}

// heapSampler polls the live heap as of the latest collection and keeps
// the peak of each slice of time from start until Stop.
type heapSampler struct {
	mu    sync.Mutex
	base  uint64
	slice time.Duration
	peaks []uint64
	stop  chan struct{}
	done  chan struct{}
}

// startHeapSampler samples every period; Stop reports each slice's peak
// above base.
func startHeapSampler(every, slice time.Duration, base uint64) *heapSampler {
	h := &heapSampler{base: base, slice: slice, stop: make(chan struct{}), done: make(chan struct{})}
	t0 := time.Now()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		s := []metrics.Sample{{Name: mHeapLive}}
		for {
			metrics.Read(s)
			k := int(time.Since(t0) / h.slice)
			h.mu.Lock()
			for len(h.peaks) <= k {
				h.peaks = append(h.peaks, 0)
			}
			h.peaks[k] = max(h.peaks[k], s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns each slice's peak above the base in MB
// (10^6 bytes); a slice with no sample reads 0.
func (h *heapSampler) Stop() []float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.peaks))
	for i, p := range h.peaks {
		out[i] = float64(p-min(h.base, p)) / 1e6
	}
	return out
}

// arena holds the benchmark's own large tables in memory mapped outside
// the Go heap. heap_peak_mb then counts the program's heap alone, and the
// tables do not raise the garbage collector's heap goal, which would let
// the program's garbage pile up further before each collection.
type arena struct{ maps [][]byte }

// offHeap returns a zeroed slice of n Ts from the arena. T must hold no
// pointers: the garbage collector does not scan this memory.
func offHeap[T any](a *arena, n int) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero)) * n
	if size == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes: %w", size, err)
	}
	a.maps = append(a.maps, b)
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// bytes is the size of every table in the arena.
func (a *arena) bytes() int {
	n := 0
	for _, b := range a.maps {
		n += len(b)
	}
	return n
}

// free unmaps every table; none may be used afterwards.
func (a *arena) free() {
	for _, b := range a.maps {
		syscall.Munmap(b)
	}
	a.maps = nil
}

// udpCounters are the kernel's UDP counters of interest, from
// /proc/net/snmp.
type udpCounters struct {
	RcvbufErrors int64
	OutDatagrams int64
}

const snmpPath = "/proc/net/snmp"

// readUDP reads the kernel UDP counters. ok is false when the file or the
// fields are missing, so callers report the metrics as absent, not zero.
func readUDP(path string) (udpCounters, bool) {
	f, err := os.Open(path)
	if err != nil {
		return udpCounters{}, false
	}
	defer f.Close()
	return parseSNMP(f)
}

// parseSNMP reads the "Udp:" header/value line pair of /proc/net/snmp.
func parseSNMP(r io.Reader) (udpCounters, bool) {
	sc := bufio.NewScanner(r)
	var header []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		var c udpCounters
		found := 0
		for i := 1; i < len(fields) && i < len(header); i++ {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return udpCounters{}, false
			}
			switch header[i] {
			case "RcvbufErrors":
				c.RcvbufErrors = v
				found++
			case "OutDatagrams":
				c.OutDatagrams = v
				found++
			}
		}
		return c, found == 2
	}
	return udpCounters{}, false
}
