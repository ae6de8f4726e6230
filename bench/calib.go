package main

import (
	"syscall"
	"time"
	"unsafe"
)

// calibrator measures how fast the machine is right now with four
// small kernels that contain no engine code: random reads over 64 MB
// (DRAM latency), random reads over 1 MB (cache), a sequential pass
// over 64 MB (bandwidth) and register arithmetic.
//
// The sandboxes this benchmark runs in share their memory system with
// other tenants: over a few minutes the first kernel alone drifts by a
// factor of two, and every workload here drifts with it (README.md has
// the measurements). A run therefore takes a calibration sample before
// every set-up and every unit and divides its end-to-end times by the
// median sample, which halves the run-to-run spread. The kernels never
// change with the engine, so a slower engine is still a slower number.
type calibrator struct {
	mem        []byte
	big, small []uint64
}

const (
	calibBigWords   = 1 << 23 // 64 MB
	calibSmallWords = 1 << 17 // 1 MB
)

// nominalCalibration is what the four kernels take, in nanoseconds, on
// the two-core sandbox this benchmark was written on. A machine where
// they take exactly this long has speed factor 1 and reports its times
// unscaled.
var nominalCalibration = [4]float64{9.0e6, 6.0e6, 12.0e6, 10.0e6}

// newCalibrator maps its arrays outside the Go heap, so that they do
// not change when the garbage collector runs for the engine.
func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, 8*(calibBigWords+calibSmallWords), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibBigWords+calibSmallWords)
	for i := range words {
		words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return &calibrator{mem: mem, big: words[:calibBigWords], small: words[calibBigWords:]}, nil
}

func (c *calibrator) close() error { return syscall.Munmap(c.mem) }

// calibSink keeps the kernels' results alive.
var calibSink uint64

func randomReads(a []uint64, n int) {
	mask := uint64(len(a) - 1)
	x := uint64(88172645463325252)
	var s uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += a[x&mask]
	}
	calibSink += s
}

// sample runs the four kernels once (about 40 ms) and returns the
// machine's speed factor: the mean, over the kernels, of time taken to
// nominal time. Above 1 the machine is slower than nominal.
func (c *calibrator) sample() float64 {
	kernels := [4]func(){
		func() { randomReads(c.big, 400_000) },
		func() { randomReads(c.small, 2_000_000) },
		func() {
			var s uint64
			for _, v := range c.big {
				s += v
			}
			calibSink += s
		},
		func() {
			x := uint64(88172645463325252)
			for i := 0; i < 5_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			calibSink += x
		},
	}
	factor := 0.0
	for i, kernel := range kernels {
		start := time.Now()
		kernel()
		factor += float64(time.Since(start)) / nominalCalibration[i] / float64(len(kernels))
	}
	return factor
}
