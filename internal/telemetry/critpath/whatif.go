package critpath

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// taskInfo is one schedulable task extracted from the trace — the unit
// the what-if model moves between workers.
type taskInfo struct {
	job, phase, worker string
	seconds            float64
	straggler          bool
}

func collectTasks(root *node) []taskInfo {
	var out []taskInfo
	var visit func(n *node)
	visit = func(n *node) {
		if strings.HasSuffix(n.name, "-task") {
			out = append(out, taskInfo{
				job:       n.job,
				phase:     n.phase,
				worker:    n.worker,
				seconds:   n.end - n.start,
				straggler: attrBool(n.attrs, "straggler"),
			})
		}
		for _, k := range n.kids {
			visit(k)
		}
	}
	visit(root)
	return out
}

// whatIf predicts the makespan under alternative schedules. The model:
// keep every critical segment that is not task work (coordination,
// shuffle, phase dispatch gaps) at its observed cost, and replace the
// task-attributed critical seconds of each (job, phase) group with the
// group's re-scheduled makespan. Groups re-schedule independently
// because the pipeline runs them behind barriers.
func whatIf(a *Analysis, tasks []taskInfo) []Scenario {
	if len(tasks) == 0 {
		return nil
	}
	workers := map[string]bool{}
	groups := map[string][]taskInfo{}
	for _, t := range tasks {
		if t.worker != "" {
			workers[t.worker] = true
		}
		groups[t.job+"/"+t.phase] = append(groups[t.job+"/"+t.phase], t)
	}
	w := len(workers)
	if w == 0 {
		return nil
	}

	// Observed task-attributed critical seconds per group.
	obs := map[string]float64{}
	var obsTotal float64
	for _, s := range a.CriticalPath {
		if s.Worker == "" || (s.Phase != PhaseMap && s.Phase != PhaseReduce) {
			continue
		}
		obs[s.Job+"/"+s.Phase] += s.Seconds
		obsTotal += s.Seconds
	}

	base := a.MakespanSeconds
	// predict re-schedules every group with the given slot count and
	// per-task duration override, returning the modelled makespan. A
	// group contributes the *change* against its observed critical task
	// seconds, clamped by the scenario's direction: a speed-up scenario
	// cannot reclaim more than the group's observed critical time (a
	// group that never gated the clock yields nothing when sped up),
	// and a slow-down scenario (fewer workers) cannot go below it.
	predict := func(slots int, dur func(t taskInfo, group []taskInfo) float64, divisible bool) float64 {
		speedup := slots >= w
		total := base - obsTotal
		for key, group := range groups {
			durs := make([]time.Duration, len(group))
			var sum float64
			for i, t := range group {
				d := dur(t, group)
				durs[i] = time.Duration(d * float64(time.Second))
				sum += d
			}
			var pred float64
			if divisible {
				pred = sum / float64(slots)
			} else {
				pred = cluster.LPT(durs, slots).Seconds()
			}
			o := obs[key]
			if speedup && pred > o {
				pred = o
			}
			if !speedup && pred < o {
				pred = o
			}
			total += pred
		}
		return math.Max(total, 0)
	}
	identity := func(t taskInfo, _ []taskInfo) float64 { return t.seconds }

	// The no-straggler scenario removes the flagged straggler *worker*:
	// every task it ran is pulled back to the healthy pack's median.
	// Worker-level (not task-level) because the master's detector needs
	// >= 3 same-phase samples — a stalled worker that drew a one-task
	// phase (the merge job) is invisible to it, but its partition-job
	// tasks already identified the machine.
	stragglerWorkers := map[string]bool{}
	var stragglers int
	for _, t := range tasks {
		if t.straggler {
			stragglers++
			if t.worker != "" {
				stragglerWorkers[t.worker] = true
			}
		}
	}
	healthyMedian := func(pool []taskInfo, phase string, byPhase bool) (float64, bool) {
		var rest []float64
		for _, o := range pool {
			if !o.straggler && !stragglerWorkers[o.worker] && (!byPhase || o.phase == phase) {
				rest = append(rest, o.seconds)
			}
		}
		if len(rest) == 0 {
			return 0, false
		}
		sort.Float64s(rest)
		if len(rest)%2 == 1 {
			return rest[len(rest)/2], true
		}
		return (rest[len(rest)/2-1] + rest[len(rest)/2]) / 2, true
	}
	despeckled := func(t taskInfo, group []taskInfo) float64 {
		if !t.straggler && !stragglerWorkers[t.worker] {
			return t.seconds
		}
		// Reference: healthy tasks in the same group; else the same
		// phase across jobs (a one-task group has no healthy peers).
		if m, ok := healthyMedian(group, "", false); ok {
			return m
		}
		if m, ok := healthyMedian(tasks, t.phase, true); ok {
			return m
		}
		return t.seconds
	}

	var out []Scenario
	add := func(name string, pred float64, detail string) {
		s := Scenario{Name: name, PredictedSeconds: pred, Detail: detail}
		if pred > 0 {
			s.SpeedupX = base / pred
		}
		out = append(out, s)
	}
	add("perfect-balance", predict(w, identity, true),
		fmt.Sprintf("Eq. (5)-perfect split of %.3g task-seconds of work over %d workers", taskSum(tasks), w))
	for _, dk := range []int{-1, 1} { // one worker fewer, one more
		slots := w + dk
		if slots < 1 || slots == w {
			continue
		}
		add(fmt.Sprintf("workers%+d", dk), predict(slots, identity, false),
			fmt.Sprintf("LPT re-schedule of %d tasks onto %d workers", len(tasks), slots))
	}
	if stragglers > 0 {
		add("no-straggler", predict(w, despeckled, false),
			fmt.Sprintf("%d straggler task(s) pulled back to the phase median", stragglers))
	}
	return out
}

func taskSum(tasks []taskInfo) float64 {
	var s float64
	for _, t := range tasks {
		s += t.seconds
	}
	return s
}

// skewCheck cross-references flight-recorder partition skew with the
// trace's per-worker busy-time skew. Nil when neither side has data.
func skewCheck(rep *telemetry.Report, tasks []taskInfo, scenarios []Scenario) *SkewCheck {
	busy := map[string]float64{}
	for _, t := range tasks {
		if t.worker != "" {
			busy[t.worker] += t.seconds
		}
	}
	var c SkewCheck
	if len(busy) > 0 {
		var max, sum float64
		for _, b := range busy {
			sum += b
			if b > max {
				max = b
			}
		}
		if mean := sum / float64(len(busy)); mean > 0 {
			c.WorkerBusyImbalance = max / mean
		}
	}
	if rep != nil {
		c.FlightImbalance = rep.Skew.Imbalance
		c.FlightGini = rep.Skew.Gini
	}
	if c.FlightImbalance == 0 && c.WorkerBusyImbalance == 0 {
		return nil
	}
	// The two imbalances come from independent evidence (shuffle-volume
	// accounting vs worker task spans); agreeing on which side of the
	// 1.25× line they fall is the cross-check.
	const line = 1.25
	c.Consistent = (c.FlightImbalance >= line) == (c.WorkerBusyImbalance >= line) ||
		c.FlightImbalance == 0 || c.WorkerBusyImbalance == 0
	switch {
	case !c.Consistent && c.WorkerBusyImbalance >= line:
		c.Note = "workers are imbalanced but partition loads are not: suspect a straggling worker, not the partitioning"
	case !c.Consistent:
		c.Note = "partition loads are skewed but worker busy time is not: the schedule absorbed the skew"
	case c.FlightImbalance >= line:
		c.Note = "partition-load skew confirmed on the critical path: rebalancing should pay (see perfect-balance)"
	default:
		c.Note = "partition loads and worker busy time agree: balanced"
	}
	return &c
}
