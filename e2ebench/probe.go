package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// On a shared VM the same code runs at one of two speeds about 1.9×
// apart, switching within seconds, and the share of slow time drifts
// over minutes (README.md, "Host and steadiness"). A hostProbe samples
// that speed while a phase is measured: every 10 ms it runs a fixed
// kernel on a locked OS thread and reads that thread's own CPU clock.
// Time the thread spends preempted by the system under test does not
// count, and load on the other vCPU does not slow it, so the probe
// reads the host, not the program being measured.

// refProbeNs is the kernel's thread CPU time on the 2-vCPU reference
// host in its fast state. Normalized timings read as if measured there.
const refProbeNs = 60_000

const probeEvery = 10 * time.Millisecond

var probeSink complex128

// probeKernel is a 32 × 32 complex matrix product: small dense complex
// arithmetic like the P-MUSIC kernels, but the benchmark's own code, so
// no change to the product moves it.
func probeKernel() {
	const n = 32
	var a, b, c [n][n]complex128
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = complex(float64(i+j), float64(i-j))
			b[i][j] = complex(float64(i*j%7), 1)
		}
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			x := a[i][k]
			for j := 0; j < n; j++ {
				c[i][j] += x * b[k][j]
			}
		}
	}
	probeSink = c[1][1]
}

// threadCPUNs reads the calling thread's CPU clock
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPUNs() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

type hostProbe struct {
	stop, done chan struct{}
	ns         []float64
}

func startProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				t0 := threadCPUNs()
				probeKernel()
				p.ns = append(p.ns, float64(threadCPUNs()-t0))
			}
		}
	}()
	return p
}

// end stops the probe and returns the host's slowdown over the phase
// against the reference host: the mean kernel time ÷ refProbeNs. The
// mean, not the median, because the speed is bimodal and the phase
// spent its time in both states.
func (p *hostProbe) end() float64 {
	close(p.stop)
	<-p.done
	if len(p.ns) == 0 {
		return 1
	}
	return mean(p.ns) / refProbeNs
}
