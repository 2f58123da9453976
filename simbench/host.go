package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSnap is the process's host-side state at one instant: what the
// simulator has cost so far, as opposed to the virtual time it models.
type hostSnap struct {
	wall     time.Time
	cpu      float64 // user+sys CPU seconds of the whole process
	alloc    uint64  // cumulative heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // estimated CPU seconds spent in the GC
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// takeSnap reads the host counters. Callers collect garbage first, so the
// allocation counter sits at the same point of the heap cycle on every rep.
func takeSnap() hostSnap {
	metrics.Read(runtimeSamples)
	return hostSnap{
		wall:     time.Now(),
		cpu:      processCPU(),
		alloc:    runtimeSamples[0].Value.Uint64(),
		gcCycles: runtimeSamples[1].Value.Uint64(),
		gcCPU:    runtimeSamples[2].Value.Float64(),
	}
}

// hostCost is the difference between two snapshots.
type hostCost struct {
	wall, cpu, gcCPU float64
	alloc, gcCycles  uint64
}

func (a hostSnap) until(b hostSnap) hostCost {
	return hostCost{
		wall:     b.wall.Sub(a.wall).Seconds(),
		cpu:      b.cpu - a.cpu,
		gcCPU:    b.gcCPU - a.gcCPU,
		alloc:    b.alloc - a.alloc,
		gcCycles: b.gcCycles - a.gcCycles,
	}
}

// refEvents sizes one pass of the reference loop: about 19 ms on a 2-core
// Xeon VM.
const refEvents = 150000

// refDigest is the reference loop's result; any other value means the loop
// did not run as written.
var refDigest = refLoop()

// refKeys and refState are the reference loop's working set, allocated
// once so that the loop itself allocates nothing and no garbage collection
// can land inside it.
var (
	refKeys = func() []string {
		keys := make([]string, 1024)
		for i := range keys {
			keys[i] = strconv.FormatUint(uint64(i)*2654435761, 36)
		}
		return keys
	}()
	refState = make(map[string]float64, len(refKeys))
	refHeap  = make([]refEvent, 0, 128)
)

// refLoop is the host-speed reference. It is a fixed mix of the work the
// simulator does: an event heap, string-keyed map updates and float
// arithmetic over a working set of a few hundred kilobytes. It lives in
// the benchmark's own code, so no change to the program can make it
// faster or slower; only the host can. It returns a checksum that must
// always equal refDigest.
func refLoop() uint64 {
	clear(refState)
	q := refHeap[:0]
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	sum := 0.0
	for i := 0; i < 64; i++ {
		q = refPush(q, refEvent{t: float64(next()%1000) / 10})
	}
	for fired := 0; fired < refEvents; fired++ {
		var e refEvent
		e, q = refPop(q)
		k := refKeys[next()%uint64(len(refKeys))]
		v := refState[k] + math.Sqrt(e.t+1)
		refState[k] = v
		sum += v - e.d
		d := float64(next()%1000) / 10
		q = refPush(q, refEvent{t: e.t + d, d: d})
	}
	refHeap = q
	return math.Float64bits(sum) ^ uint64(len(refState))
}

type refEvent struct{ t, d float64 }

// refPush and refPop keep q a binary min-heap on t.
func refPush(q []refEvent, e refEvent) []refEvent {
	q = append(q, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].t <= q[i].t {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	return q
}

func refPop(q []refEvent) (refEvent, []refEvent) {
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < n && q[l].t < q[small].t {
			small = l
		}
		if r := l + 1; r < n && q[r].t < q[small].t {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top, q
}

// measure runs fn between two snapshots, collecting garbage before each so
// that neither the previous phase's garbage nor this phase's is charged to
// the wrong side. The trailing collection runs outside the timed interval.
func measure(fn func()) hostCost {
	runtime.GC()
	a := takeSnap()
	fn()
	b := takeSnap()
	runtime.GC()
	c := takeSnap()
	cost := a.until(b)
	cost.alloc = c.alloc - a.alloc
	return cost
}

// refNominalS is the median time of one reference pass on the host the
// benchmark was tuned on (a 2-core Intel Xeon VM, go1.24). Scaled host
// times are seconds on a host of that speed.
const refNominalS = 0.019

// refPasses is how many reference passes make one speed reading.
const refPasses = 5

// calibrator reads the host's speed. Around every timed phase it times
// refPasses passes of the reference loop; the run's host times are scaled
// by refNominalS over the median of all its readings. A host that slows
// down for minutes slows the reference loop as much as the simulator, so
// the scaled times stay put while the raw ones drift.
type calibrator struct {
	walls, cpus []float64 // wall and CPU seconds of one pass, per reading
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{}
	return c, c.read()
}

// read takes one reading: the median wall and CPU seconds of a pass.
func (c *calibrator) read() error {
	walls := make([]float64, refPasses)
	cpus := make([]float64, refPasses)
	for i := range walls {
		t0, c0 := time.Now(), processCPU()
		if d := refLoop(); d != refDigest {
			return fmt.Errorf("reference loop returned %016x, want %016x", d, refDigest)
		}
		walls[i], cpus[i] = time.Since(t0).Seconds(), processCPU()-c0
	}
	c.walls = append(c.walls, median(walls))
	c.cpus = append(c.cpus, median(cpus))
	return nil
}

// timed measures fn, then takes a reading.
func (c *calibrator) timed(fn func()) (hostCost, error) {
	cost := measure(fn)
	return cost, c.read()
}

// scale returns the factors that turn this run's wall and CPU seconds into
// seconds at the reference speed.
func (c *calibrator) scale() (wall, cpu float64) {
	return refNominalS / median(c.walls), refNominalS / median(c.cpus)
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS restarts the kernel's peak-resident-set record (VmHWM) at
// the current resident set. It reports false where /proc/self/clear_refs
// is unavailable.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the peak resident set since the last resetPeakRSS, from
// /proc/self/status VmHWM, or over the whole process (getrusage Maxrss)
// where that file is unavailable. Both are in KiB.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// userHZ is the tick rate of /proc/stat on Linux.
const userHZ = 100

// stealTicks reads the host-wide steal counter from /proc/stat: time the
// hypervisor ran someone else while this VM wanted a CPU. It returns -1
// where the file is unavailable.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// hostNoise is the record of how quiet the host was during one run.
type hostNoise struct {
	GOMAXPROCS int
	NumCPU     int
	StealS     float64 // -1 when /proc/stat is unreadable
	RefS       float64 // median reference pass, against refNominalS
}

func (h hostNoise) String() string {
	return fmt.Sprintf("host: gomaxprocs=%d nproc=%d steal_s=%g ref_s=%.4f (nominal %g)",
		h.GOMAXPROCS, h.NumCPU, h.StealS, h.RefS, refNominalS)
}
