// Command skytop is a terminal dashboard for a live skyline cluster: it
// polls the target's /metrics, /debug/health, /debug/flightrecorder,
// /debug/critpath, /debug/timeseries, /debug/slowlog and /debug/slo
// endpoints and renders phase progress, per-worker state and
// throughput, straggler/retry flags, partition-load sparklines, the
// critical-path bottleneck panel, the slow-query tail and SLO burn
// state.
//
//	skytop -addr 127.0.0.1:9090              # refreshing live view
//	skytop -addr 127.0.0.1:9090 -once        # one snapshot (scripts, CI)
//
// Point -addr at the skymaster -metrics-addr (worker table, flight
// record) or at a skyserve instance (query log, SLO panel). Every debug
// surface is optional: endpoints that are absent or failing render as
// "n/a" panels instead of killing the refresh — only an unreachable
// /metrics counts as a poll error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"time"

	"repro/internal/asciiplot"
	"repro/internal/rpcmr"
	"repro/internal/telemetry"
	"repro/internal/telemetry/critpath"
	"repro/internal/telemetry/timeseries"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "master debug address (its -metrics-addr)")
	interval := flag.Duration("interval", time.Second, "refresh interval in live mode")
	once := flag.Bool("once", false, "render one snapshot and exit (for scripts and CI)")
	flag.Parse()

	c := &client{base: "http://" + *addr, http: &http.Client{Timeout: 5 * time.Second}}
	var prev *sample
	for {
		s := c.poll()
		var b strings.Builder
		render(&b, *addr, s, prev)
		if *once {
			io.WriteString(os.Stdout, b.String())
			if s.err != nil {
				fmt.Fprintf(os.Stderr, "skytop: %v\n", s.err)
				os.Exit(1)
			}
			return
		}
		// ANSI home+clear, then the frame: one write per refresh keeps
		// flicker down without any terminal library.
		io.WriteString(os.Stdout, "\x1b[H\x1b[2J"+b.String())
		prev = s
		time.Sleep(*interval)
	}
}

// sample is one poll of the target's debug surface.
type sample struct {
	at      time.Time
	health  *rpcmr.Health
	metrics map[string]float64
	flight  *telemetry.Report
	crit    *critpath.Analysis
	series  *timeseries.Doc
	slowlog *telemetry.QueryLogDoc
	slo     *timeseries.SLODoc
	err     error // metrics fetch error; partial samples still render
}

type client struct {
	base string
	http *http.Client
}

func (c *client) poll() *sample {
	s := &sample{at: time.Now()}
	// Every debug surface degrades to an "n/a" panel when absent or
	// failing — a skyserve target has no worker health, a skymaster has
	// no query log, an older binary may have neither. Only /metrics, the
	// one surface every target serves, makes the poll an error.
	if text, err := c.getText("/metrics"); err == nil {
		if m, err := telemetry.ParsePrometheus(text); err == nil {
			s.metrics = m
		}
	} else {
		s.err = err
	}
	if err := c.getJSON(telemetry.HealthPath, &s.health); err != nil {
		s.health = nil
	}
	if err := c.getJSON(telemetry.FlightRecorderPath, &s.flight); err != nil {
		s.flight = nil
	}
	if err := c.getJSON(critpath.Path, &s.crit); err != nil {
		s.crit = nil
	}
	if err := c.getJSON(timeseries.Path+"?series=rpcmr_tasks_done_total&window=64s", &s.series); err != nil {
		s.series = nil
	}
	if err := c.getJSON(telemetry.SlowLogPath, &s.slowlog); err != nil {
		s.slowlog = nil
	}
	if err := c.getJSON(timeseries.SLOPath, &s.slo); err != nil {
		s.slo = nil
	}
	return s
}

func (c *client) getText(path string) (string, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	return string(body), err
}

func (c *client) getJSON(path string, v any) error {
	text, err := c.getText(path)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(text), v)
}

// render writes one dashboard frame.
func render(w io.Writer, addr string, s, prev *sample) {
	fmt.Fprintf(w, "skytop — %s — %s\n", addr, s.at.Format("15:04:05"))
	if s.err != nil {
		fmt.Fprintf(w, "  [poll error: %v]\n", s.err)
	}
	if h := s.health; h != nil {
		renderJob(w, h)
		renderWorkers(w, s, prev)
	} else {
		fmt.Fprintf(w, "\nhealth: n/a\n")
	}
	renderThroughput(w, s, prev)
	if s.flight != nil {
		renderFlight(w, s.flight)
	}
	renderCritPath(w, s.crit)
	renderSLO(w, s.slo)
	renderSlowlog(w, s.slowlog, 5)
}

// renderSLO shows each objective's achieved level, budget consumption
// and multi-window burn state; "n/a" when the target has no objectives.
func renderSLO(w io.Writer, doc *timeseries.SLODoc) {
	if doc == nil {
		fmt.Fprintf(w, "\nslo: n/a\n")
		return
	}
	state := "ok"
	if doc.Burning {
		state = "BURNING"
	}
	fmt.Fprintf(w, "\nslo: %s\n", state)
	for _, o := range doc.Objectives {
		detail := fmt.Sprintf("target %.4g", o.Target)
		if o.Kind == "latency" {
			detail = fmt.Sprintf("p%.0f <= %s", o.Quantile*100,
				time.Duration(o.ThresholdSeconds*float64(time.Second)).Round(time.Millisecond))
		}
		flag := ""
		if o.Violated {
			flag = "  VIOLATED"
		}
		burns := make([]string, len(o.Windows))
		for i, win := range o.Windows {
			burns[i] = fmt.Sprintf("%s=%.1fx",
				time.Duration(win.WindowSeconds*float64(time.Second)).Round(time.Second), win.BurnRate)
		}
		fmt.Fprintf(w, "  %-14s %-18s achieved %.4f  budget used %5.1f%%  burn %s%s\n",
			clip(o.Name, 14), detail, o.Achieved, o.BudgetUsed*100, strings.Join(burns, " "), flag)
	}
}

// renderSlowlog shows the slowest tracked queries; "n/a" when the target
// serves no query log.
func renderSlowlog(w io.Writer, doc *telemetry.QueryLogDoc, max int) {
	if doc == nil {
		fmt.Fprintf(w, "\nslow queries: n/a\n")
		return
	}
	fmt.Fprintf(w, "\nslow queries: %d of %d tracked over %s threshold\n",
		doc.Totals.SlowQueries, doc.Totals.Queries,
		time.Duration(doc.ThresholdSeconds*float64(time.Second)).Round(time.Millisecond))
	qs := doc.Queries
	if len(qs) > max {
		qs = qs[:max]
	}
	if len(qs) == 0 {
		return
	}
	fmt.Fprintf(w, "  %6s %-9s %-7s %10s %6s %9s %9s %6s\n",
		"ID", "OP", "PATH", "DURATION", "PARTS", "CANDS", "TESTS", "RESULT")
	for _, q := range qs {
		fmt.Fprintf(w, "  %6d %-9s %-7s %10s %6d %9d %9d %6d\n",
			q.ID, clip(q.Op, 9), clip(q.Path, 7),
			time.Duration(q.DurationSeconds*float64(time.Second)).Round(time.Microsecond),
			q.PartitionsProbed, q.CandidatesScanned, q.DominanceTests, q.ResultSize)
	}
}

// renderJob shows the running job and a phase progress bar.
func renderJob(w io.Writer, h *rpcmr.Health) {
	if !h.JobRunning {
		fmt.Fprintf(w, "\njob: idle   workers: %d healthy / %d suspect / %d dead   retries: %d   failures: %d\n",
			h.Healthy, h.Suspect, h.Dead, h.TaskRetries, h.WorkerFailures)
		if h.LastJobError != "" {
			fmt.Fprintf(w, "last job error: %s\n", h.LastJobError)
		}
		return
	}
	fmt.Fprintf(w, "\njob: %s   phase: %s   workers: %d healthy / %d suspect / %d dead\n",
		h.Job, h.Phase, h.Healthy, h.Suspect, h.Dead)
	fmt.Fprintf(w, "%s %d/%d tasks  (queue %d, in-flight %d)   retries: %d   failures: %d\n",
		progressBar(h.TasksDone, h.TasksTotal, 32), h.TasksDone, h.TasksTotal,
		h.QueueDepth, h.InFlight, h.TaskRetries, h.WorkerFailures)
}

// progressBar renders done/total as a fixed-width bar.
func progressBar(done, total, width int) string {
	if total <= 0 {
		return "[" + strings.Repeat("-", width) + "]"
	}
	fill := done * width / total
	if fill > width {
		fill = width
	}
	return "[" + strings.Repeat("█", fill) + strings.Repeat("·", width-fill) + "]"
}

// renderWorkers shows the per-worker table: state, last-seen age, task
// throughput (from consecutive samples), straggler and retry flags.
func renderWorkers(w io.Writer, s, prev *sample) {
	h := s.health
	if len(h.Workers) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-14s %-8s %9s %10s %8s %6s %6s  %s\n",
		"WORKER", "STATE", "LAST SEEN", "DONE", "TASKS/S", "STRAG", "RETRY", "LAST ERROR")
	for _, wk := range h.Workers {
		rate := "-"
		if prev != nil && prev.health != nil {
			for _, pw := range prev.health.Workers {
				if pw.ID == wk.ID {
					dt := s.at.Sub(prev.at).Seconds()
					if dt > 0 {
						// Clamp counter resets (a restarted worker re-registers
						// with TasksDone back at 0) to zero instead of rendering
						// negative throughput.
						rate = fmt.Sprintf("%.1f", clampRate(float64(wk.TasksDone-pw.TasksDone)/dt))
					}
				}
			}
		}
		fmt.Fprintf(w, "%-14s %-8s %8.1fs %10d %8s %6.0f %6.0f  %s\n",
			clip(wk.ID, 14), wk.State, wk.LastSeenAgeSeconds, wk.TasksDone, rate,
			labeled(s.metrics, "rpcmr_stragglers_total", "worker", wk.ID),
			labeled(s.metrics, "rpcmr_task_retries_total", "worker", wk.ID),
			clip(wk.LastError, 40))
	}
}

// clampRate floors a counter-delta rate at zero: a counter reset (the
// source process restarted between polls) must render as 0, never as
// negative throughput.
func clampRate(r float64) float64 {
	if r < 0 {
		return 0
	}
	return r
}

// renderThroughput draws the cluster task-throughput sparkline from the
// target's real sampled history (/debug/timeseries): per-interval rates
// of rpcmr_tasks_done_total, counter resets clamped to zero. Targets
// without the endpoint degrade to the old two-sample estimate from
// consecutive /metrics polls.
func renderThroughput(w io.Writer, s, prev *sample) {
	if s.series != nil {
		pts := s.series.Series["rpcmr_tasks_done_total"]
		if len(pts) >= 2 {
			rates := make([]float64, 0, len(pts)-1)
			var last float64
			for i := 1; i < len(pts); i++ {
				dt := float64(pts[i].UnixNano-pts[i-1].UnixNano) / 1e9
				if dt <= 0 {
					continue
				}
				last = clampRate((pts[i].Value - pts[i-1].Value) / dt)
				rates = append(rates, last)
			}
			if len(rates) > 0 {
				fmt.Fprintf(w, "\nthroughput (%d samples @ %.1fs)  %s  %.1f tasks/s\n",
					len(pts), s.series.IntervalSeconds, asciiplot.Spark(rates), last)
				return
			}
		}
	}
	// Degraded path: two-sample estimate across polls.
	if prev == nil || s.metrics == nil || prev.metrics == nil {
		return
	}
	cur, ok1 := s.metrics["rpcmr_tasks_done_total"]
	old, ok2 := prev.metrics["rpcmr_tasks_done_total"]
	dt := s.at.Sub(prev.at).Seconds()
	if ok1 && ok2 && dt > 0 {
		fmt.Fprintf(w, "\nthroughput (2-sample estimate)  %.1f tasks/s\n", clampRate((cur-old)/dt))
	}
}

// labelRe pulls one k="v" pair out of a Prometheus series key.
var labelRe = regexp.MustCompile(`(\w+)="((?:[^"\\]|\\.)*)"`)

// labeled sums a metric's series whose label set includes key=value —
// summing covers series that split the same worker across extra labels
// (e.g. rpcmr_task_retries_total{cause,worker}).
func labeled(metrics map[string]float64, name, key, value string) float64 {
	var total float64
	for series, v := range metrics {
		if !strings.HasPrefix(series, name+"{") {
			continue
		}
		for _, m := range labelRe.FindAllStringSubmatch(series, -1) {
			if m[1] == key && m[2] == value {
				total += v
				break
			}
		}
	}
	return total
}

// renderFlight shows the partition-load sparkline and the skew /
// optimality rollups from the flight record (partitions arrive sorted by
// id). Nothing until a run has routed a point.
func renderFlight(w io.Writer, r *telemetry.Report) {
	if r.Skew.MaxLoad == 0 {
		return
	}
	loads := make([]float64, len(r.Partitions))
	for i, p := range r.Partitions {
		loads[i] = float64(p.InputRecords)
	}
	fmt.Fprintf(w, "\npartition load (%d partitions)  %s\n", len(loads), asciiplot.Spark(loads))
	fmt.Fprintf(w, "skew: imbalance %.2f, gini %.2f   optimality (Eq.5): %.3f   stragglers: %d\n",
		r.Skew.Imbalance, r.Skew.Gini, r.Optimality, r.Stragglers)
}

// renderCritPath shows the bottleneck panel from the critical-path
// analyzer: phase blame, the worst worker, and the headline what-if
// predictions. "n/a" when the target serves no /debug/critpath (an
// older binary, a skyserve target) or has no completed job to analyze.
func renderCritPath(w io.Writer, a *critpath.Analysis) {
	if a == nil || a.MakespanSeconds <= 0 {
		fmt.Fprintf(w, "\nbottleneck: n/a\n")
		return
	}
	fmt.Fprintf(w, "\nbottleneck: makespan %s  ", seconds(a.MakespanSeconds))
	for _, p := range a.Phases {
		fmt.Fprintf(w, " %s %s (%.0f%%)", p.Phase, seconds(p.Seconds), p.Share*100)
	}
	fmt.Fprintln(w)
	if len(a.Workers) > 0 {
		wk := a.Workers[0]
		mark := ""
		if wk.Straggler {
			mark = "  STRAGGLER"
		}
		fmt.Fprintf(w, "  worst worker: %s %s (%.0f%%)%s\n", wk.Worker, seconds(wk.Seconds), wk.Share*100, mark)
	}
	for _, sc := range a.WhatIf {
		if sc.Name == "perfect-balance" || sc.Name == "no-straggler" {
			fmt.Fprintf(w, "  what-if %-15s %s (%.2fx)\n", sc.Name, seconds(sc.PredictedSeconds), sc.SpeedupX)
		}
	}
}

// seconds prints a duration in seconds, in milliseconds below one second
// so that a job of a few milliseconds does not read 0.00s.
func seconds(s float64) string {
	if s < 1 {
		return fmt.Sprintf("%.2fms", s*1e3)
	}
	return fmt.Sprintf("%.2fs", s)
}

// clip bounds s to n runes.
func clip(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}
