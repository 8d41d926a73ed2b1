package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostCost is what one repetition cost the host process.
type hostCost struct {
	wallS, cpuS, allocMB float64
	// heapLiveMB is the live heap averaged over the repetition, and
	// heapPeakMB its largest value; both are sampled after each garbage
	// collection marks.
	heapLiveMB, heapPeakMB float64
	gcCycles               uint32
	gcPauseS               float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const (
	heapLive    = "/gc/heap/live:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
	sampleEvery = 2 * time.Millisecond
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measure runs fn once from a freshly collected heap and reports its
// host cost. A sampler goroutine polls the live heap; it is stopped and
// waited for before measure returns.
func measure(fn func() error) (hostCost, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	alloc0 := readMetric(heapAllocs)

	type heapStats struct{ mean, peak float64 }
	stop, heapCh := make(chan struct{}), make(chan heapStats)
	go func() {
		var sum, peak float64
		n := 0
		sample := func() {
			v := float64(readMetric(heapLive)) / 1e6
			sum, peak, n = sum+v, max(peak, v), n+1
		}
		sample()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sample()
				heapCh <- heapStats{sum / float64(n), peak}
				return
			case <-tick.C:
				sample()
			}
		}
	}()

	cpu0, t0 := cpuSeconds(), time.Now()
	err := fn()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	close(stop)
	heap := <-heapCh

	alloc1 := readMetric(heapAllocs)
	runtime.ReadMemStats(&ms1)
	return hostCost{
		wallS:      wall,
		cpuS:       cpu,
		allocMB:    float64(alloc1-alloc0) / 1e6,
		heapLiveMB: heap.mean,
		heapPeakMB: heap.peak,
		gcCycles:   ms1.NumGC - ms0.NumGC,
		gcPauseS:   float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9,
	}, err
}
