package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// phase is one timed stretch of units: its stopping rule, its span
// recorder (nil when untraced) and what it measured.
type phase struct {
	seconds  float64
	maxUnits int // 0 = run until the deadline
	rec      *recorder

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string  // the first few failure messages
	unitMS    []float64 // one latency per attempted unit
	elapsed   time.Duration
	cpuS      float64 // CPU seconds the process used during the phase
	stealFrac float64 // share of the host CPUs' time the hypervisor took
	allocMB   float64 // heap bytes allocated during the phase, in MB
	gcCPUFrac float64 // share of the process's CPU time spent in the GC
}

// done records one finished unit.
func (p *phase) done(d time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.unitMS = append(p.unitMS, float64(d)/float64(time.Millisecond))
	if err != nil {
		p.failed++
		if len(p.failures) < 5 {
			p.failures = append(p.failures, err.Error())
		}
	}
}

// fail records that an already counted unit failed a check made after
// it was timed.
func (p *phase) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, err.Error())
	}
}

// measure runs body as the phase and samples the process's CPU time,
// the host's steal time and the Go runtime around it.
func (p *phase) measure(body func() error) error {
	before := readRuntime()
	cpu0, err := processCPU()
	if err != nil {
		return err
	}
	steal0, total0, err := hostSteal()
	if err != nil {
		return err
	}
	start := time.Now()
	err = body()
	p.elapsed = time.Since(start)
	cpu1, cerr := processCPU()
	steal1, total1, serr := hostSteal()
	if err = errors.Join(err, cerr, serr); err != nil {
		return err
	}
	p.cpuS = cpu1 - cpu0
	if total1 > total0 {
		p.stealFrac = (steal1 - steal0) / (total1 - total0)
	}
	after := readRuntime()
	p.allocMB = (after.allocBytes - before.allocBytes) / 1e6
	if cpu := after.cpuSec - before.cpuSec; cpu > 0 {
		p.gcCPUFrac = (after.gcSec - before.gcSec) / cpu
	}
	return nil
}

// closedLoop runs units back to back on one client until the phase's
// deadline or unit cap. next numbers units across phases, so no two
// units of a run share inputs.
func closedLoop(ctx context.Context, p *phase, next *int, unit func(ctx context.Context, u unitRun) error) error {
	return p.measure(func() error {
		deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
		for n := 0; p.maxUnits == 0 || n < p.maxUnits; n++ {
			if n > 0 && !time.Now().Before(deadline) {
				break
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			i := *next
			*next++
			t0 := time.Now()
			root := p.rec.begin(i, noSpan, unitLayer, unitName)
			err := unit(ctx, unitRun{i: i, rec: p.rec, root: root})
			p.rec.end(root)
			p.done(time.Since(t0), err)
		}
		return nil
	})
}

// unitRun identifies one unit to the code that runs it: its index,
// the recorder (nil when untraced) and the id of its root span.
type unitRun struct {
	i    int
	rec  *recorder
	root int
}

// coldUnit is the untraced unit set-up runs.
func coldUnit(i int) unitRun { return unitRun{i: i, root: noSpan} }

// call runs fn inside a span of the given layer and name under the
// unit's root span.
func (u unitRun) call(layer, name string, fn func(id int) error) error {
	id := u.rec.begin(u.i, u.root, layer, name)
	err := fn(id)
	u.rec.end(id)
	return err
}

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks (0 for no values).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// runtimeSample is a reading of the cumulative runtime/metrics
// counters the benchmark reports deltas of.
type runtimeSample struct {
	allocBytes, gcSec, cpuSec float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0].Value), gcSec: val(s[1].Value), cpuSec: val(s[2].Value)}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("peak RSS: unexpected line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// processCPU returns the CPU seconds, user and system, that the process
// has used. On a virtual machine with steal-time accounting the kernel
// leaves out the time the hypervisor ran other guests on the process's
// CPUs, which wall time includes.
func processCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// hostSteal reads the cumulative steal time and total time of all CPUs
// from /proc/stat, in clock ticks.
func hostSteal() (steal, total float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("host steal: %w", err)
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("host steal: unexpected line %q", line)
	}
	for k, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("host steal: %w", err)
		}
		// guest and guest_nice are already counted in user and nice.
		if k < 8 {
			total += v
		}
		if k == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
