package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// runtimeStats are the Go runtime's figures over one in-process pass.
type runtimeStats struct {
	gcCycles, gcPauseS, gcCPUFrac float64
	heapPeakMB                    float64
	allocBytes, allocObjects      float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// runtimeWatch samples the heap every heapSampleEvery while a pass
// runs, and diffs the runtime's counters around it. The heap peak is
// taken above the heap at the start, so what the benchmark itself
// keeps live (inputs, the previous pass's spans) is not counted.
type runtimeWatch struct {
	before             []metrics.Sample
	pauseNs            uint64
	stopCh             chan struct{}
	done               chan struct{}
	heapBase, heapPeak uint64
}

const heapSampleEvery = 5 * time.Millisecond

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func pauseTotalNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

func watchRuntime() *runtimeWatch {
	w := &runtimeWatch{pauseNs: pauseTotalNs(), stopCh: make(chan struct{}), done: make(chan struct{})}
	w.before = readRuntime()
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	w.heapBase, w.heapPeak = s[0].Value.Uint64(), s[0].Value.Uint64()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			w.heapPeak = max(w.heapPeak, s[0].Value.Uint64())
			select {
			case <-w.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends sampling and returns the figures since watchRuntime.
func (w *runtimeWatch) stop() runtimeStats {
	close(w.stopCh)
	<-w.done
	after := readRuntime()
	d := func(i int) float64 {
		if after[i].Value.Kind() == metrics.KindFloat64 {
			return after[i].Value.Float64() - w.before[i].Value.Float64()
		}
		return float64(after[i].Value.Uint64() - w.before[i].Value.Uint64())
	}
	st := runtimeStats{
		gcCycles:     d(0),
		allocBytes:   d(1),
		allocObjects: d(2),
		gcPauseS:     float64(pauseTotalNs()-w.pauseNs) / 1e9,
		heapPeakMB:   float64(w.heapPeak-w.heapBase) / (1 << 20),
	}
	if total := d(4); total > 0 {
		st.gcCPUFrac = d(3) / total
	}
	return st
}
