package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/points"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// nsQuantile is quantile over latency samples taken as nanoseconds.
func nsQuantile(ns []int64, q float64) float64 {
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v)
	}
	return quantile(f, q)
}

// timeIt returns fn's wall time in seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// resetPeakRSS starts a new high-water mark for one operation: it hands the
// freed heap of earlier operations back to the OS, then has the kernel
// reset VmHWM to the current resident set. Called outside every timed
// region. Where the kernel refuses the reset, peakRSSMB keeps reading the
// process's mark over its whole life.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark since resetPeakRSS.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// checksum is an order-independent digest of a point multiset: the
// wrapping sum of each point's FNV-1a hash over its coordinate bits, plus
// the count.
type checksum struct {
	Sum   uint64
	Count int
}

func checksumOf(s points.Set) checksum {
	var c checksum
	var buf [8]byte
	for _, p := range s {
		h := fnv.New64a()
		for _, v := range p {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
		c.Sum += h.Sum64()
	}
	c.Count = len(s)
	return c
}

// sameMultiset compares two point sets as sorted multisets.
func sameMultiset(a, b points.Set) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedCopy(a), sortedCopy(b)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func sortedCopy(s points.Set) points.Set {
	c := append(points.Set(nil), s...)
	sort.Slice(c, func(i, j int) bool {
		for k := range c[i] {
			if c[i][k] != c[j][k] {
				return c[i][k] < c[j][k]
			}
		}
		return false
	})
	return c
}

// provenance records where and on what a result was taken.
type provenance struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Load1      float64 `json:"load1_at_start"`
	// BusyAtStart is the share of the machine's CPU time that was not idle
	// over the 200 ms before the run: what else is running right now.
	BusyAtStart float64 `json:"busy_at_start"`
	// Noisy marks a run whose machine could not give steady numbers: fewer
	// than 2 CPUs, or more than a quarter busy at start. (The 1-minute load
	// average is recorded but cannot be the test: in suite mode the previous
	// workload's own run keeps it above 1.)
	Noisy bool `json:"noisy"`
}

func readProvenance(seed int64) provenance {
	p := provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		GitCommit:  "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			p.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	idle0, total0 := cpuTimes()
	time.Sleep(200 * time.Millisecond)
	idle1, total1 := cpuTimes()
	if total1 > total0 {
		p.BusyAtStart = 1 - (idle1-idle0)/(total1-total0)
	}
	p.Noisy = p.NProc < 2 || p.BusyAtStart > 0.25
	return p
}

// cpuTimes reads the machine's cumulative idle and total CPU time, in
// clock ticks, from the first line of /proc/stat.
func cpuTimes() (idle, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue // the "cpu" label
		}
		total += v
		if i == 4 || i == 5 { // idle, iowait
			idle += v
		}
	}
	return idle, total
}

// report is one run's outcome: the named metrics, the raw samples behind
// the medians, and the operation accounting.
type report struct {
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Quick      bool               `json:"quick"`
	Provenance provenance         `json:"provenance"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	// Extra holds numbers a run measured beyond its mode's catalogue: the
	// serve.* rows a serving timed run sees with tracing off.
	Extra   map[string]float64   `json:"extra,omitempty"`
	Samples map[string][]float64 `json:"samples"`
}

func newReport(w string, traced, quick bool, seed int64) *report {
	return &report{
		Workload: w, Traced: traced, Quick: quick,
		Provenance: readProvenance(seed),
		Metrics:    map[string]float64{},
		Extra:      map[string]float64{},
		Samples:    map[string][]float64{},
	}
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

// setMedian records the raw samples and reports their median.
func (r *report) setMedian(name string, xs []float64) {
	r.Samples[name] = xs
	r.Metrics[name] = median(xs)
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *report) op(what string, err error) {
	r.Attempted++
	if err != nil {
		r.fail(1, fmt.Sprintf("%s: %v", what, err))
	}
}

// fail counts n already-attempted operations as failed; the first few
// messages are kept for the report.
func (r *report) fail(n int, msg string) {
	r.Failed += n
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, msg)
	}
}

// check verifies that the run produced every catalogue metric of its mode,
// finite, and nothing else.
func (r *report) check() error {
	want := endToEnd
	if r.Traced {
		want = perLayer
	}
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, catalogue lists %d", len(r.Metrics), len(want))
	}
	return nil
}
