package telemetry

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Query-level observability: where the flight recorder explains one batch
// job, the query log explains the serving path — every registry read and
// publish leaves a QueryStats record saying which partitions were probed,
// how many candidates were scanned, how many dominance tests ran, and
// where the time went by stage. Records land in a bounded recent-queries
// ring plus a slow-query log (top-K by duration, with a threshold marking
// outright violations), both served under /debug. Like the rest of the
// package the plumbing is nil-safe: a nil *QueryStats drops every
// annotation and a nil *QueryLog drops every record, so the serve path
// carries no branches when attribution is off.

// StageTiming is one named stage of a query's execution.
type StageTiming struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// QueryStats is the per-query cost record. One query is one goroutine:
// the record is built single-threaded between Begin and QueryLog.Record,
// so its mutators take no lock.
type QueryStats struct {
	// ID is assigned by the QueryLog on Record (its running sequence).
	ID uint64 `json:"id"`
	// Op names the operation ("skyline", "publish", ...).
	Op    string    `json:"op"`
	Start time.Time `json:"start"`
	// DurationSeconds is stamped by QueryLog.Record.
	DurationSeconds float64 `json:"duration_seconds"`
	// Stages is the per-stage wall-time breakdown, in execution order.
	Stages []StageTiming `json:"stages,omitempty"`
	// PartitionsProbed counts partitions whose local skylines the query
	// actually visited (0 on the cached path).
	PartitionsProbed int `json:"partitions_probed"`
	// CandidatesScanned counts candidate points the query examined.
	CandidatesScanned int64 `json:"candidates_scanned"`
	// DominanceTests counts pairwise dominance tests the query executed.
	DominanceTests int64 `json:"dominance_tests"`
	// ResultSize is the number of rows returned.
	ResultSize int `json:"result_size"`
	// Path names the execution path taken ("cached", "merge", ...).
	Path string `json:"path,omitempty"`
	// Status is the HTTP status code of the response (0 outside HTTP).
	Status int `json:"status,omitempty"`
	// Slow marks records whose duration exceeded the log's threshold.
	Slow bool `json:"slow,omitempty"`
}

// BeginQuery starts a record for op. Safe to call with results fed into a
// nil QueryLog — the record is then simply discarded.
func BeginQuery(op string) *QueryStats {
	return &QueryStats{Op: op, Start: time.Now()}
}

// AddStage appends one stage timing. Nil-safe.
func (q *QueryStats) AddStage(stage string, d time.Duration) {
	if q == nil {
		return
	}
	q.Stages = append(q.Stages, StageTiming{Stage: stage, Seconds: d.Seconds()})
}

// AddCost accumulates probe work: partitions visited, candidate points
// scanned and dominance tests executed. Nil-safe.
func (q *QueryStats) AddCost(partitions int, candidates, tests int64) {
	if q == nil {
		return
	}
	q.PartitionsProbed += partitions
	q.CandidatesScanned += candidates
	q.DominanceTests += tests
}

// SetPath records the execution path taken. Nil-safe.
func (q *QueryStats) SetPath(path string) {
	if q == nil {
		return
	}
	q.Path = path
}

// SetResult records the result cardinality. Nil-safe.
func (q *QueryStats) SetResult(n int) {
	if q == nil {
		return
	}
	q.ResultSize = n
}

// SetStatus records the HTTP status of the response. Nil-safe.
func (q *QueryStats) SetStatus(code int) {
	if q == nil {
		return
	}
	q.Status = code
}

type queryStatsKey struct{}

// WithQueryStats installs q as the context's per-query record, so the
// index and kernels below the handler can attribute their work to it.
func WithQueryStats(ctx context.Context, q *QueryStats) context.Context {
	if q == nil {
		return ctx
	}
	return context.WithValue(ctx, queryStatsKey{}, q)
}

// QueryStatsFrom returns the context's per-query record; nil when query
// attribution is off (and a nil *QueryStats is safe to annotate).
func QueryStatsFrom(ctx context.Context) *QueryStats {
	q, _ := ctx.Value(queryStatsKey{}).(*QueryStats)
	return q
}

// QueryTotals are the cumulative sums over every recorded query — the
// reconciliation surface tests pin against the global metric counters
// (records evicted from the ring stay counted here).
type QueryTotals struct {
	Queries           int64 `json:"queries"`
	SlowQueries       int64 `json:"slow_queries"`
	CandidatesScanned int64 `json:"candidates_scanned"`
	DominanceTests    int64 `json:"dominance_tests"`
}

// QueryLog retains the most recent queries in a ring and the slowest in a
// bounded top-K log. Safe for concurrent use; nil-safe throughout.
type QueryLog struct {
	mu        sync.Mutex
	ring      []QueryStats // recent queries, ring[next] is the oldest slot
	next      int
	filled    bool
	seq       uint64
	slow      []QueryStats // slowest queries, descending duration, ≤ slowK
	slowK     int
	threshold float64 // seconds; records above it are flagged Slow
	totals    QueryTotals
}

// NewQueryLog returns a log retaining the most recent capacity queries
// (minimum 16) and the slowK slowest (minimum 1). Queries slower than
// threshold are flagged Slow and counted in the totals; a zero threshold
// flags nothing — the top-K tail is still kept.
func NewQueryLog(capacity, slowK int, threshold time.Duration) *QueryLog {
	if capacity < 16 {
		capacity = 16
	}
	if slowK < 1 {
		slowK = 1
	}
	return &QueryLog{
		ring:      make([]QueryStats, capacity),
		slowK:     slowK,
		threshold: threshold.Seconds(),
	}
}

// Record stamps the query's duration and files it into the recent ring
// and, when slow enough, the slow log. Nil logs and nil records are
// dropped.
func (l *QueryLog) Record(q *QueryStats) {
	if l == nil || q == nil {
		return
	}
	q.DurationSeconds = time.Since(q.Start).Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	q.ID = l.seq
	q.Slow = l.threshold > 0 && q.DurationSeconds > l.threshold
	l.totals.Queries++
	l.totals.CandidatesScanned += q.CandidatesScanned
	l.totals.DominanceTests += q.DominanceTests
	if q.Slow {
		l.totals.SlowQueries++
	}
	l.ring[l.next] = *q
	l.next++
	if l.next == len(l.ring) {
		l.next, l.filled = 0, true
	}
	// Slow log: keep the K slowest seen so far, descending. Insertion
	// sort over ≤ K entries — K is small (tens).
	if len(l.slow) < l.slowK || q.DurationSeconds > l.slow[len(l.slow)-1].DurationSeconds {
		i := sort.Search(len(l.slow), func(i int) bool {
			return l.slow[i].DurationSeconds < q.DurationSeconds
		})
		l.slow = append(l.slow, QueryStats{})
		copy(l.slow[i+1:], l.slow[i:])
		l.slow[i] = *q
		if len(l.slow) > l.slowK {
			l.slow = l.slow[:l.slowK]
		}
	}
}

// Recent returns up to limit of the most recent queries, newest first
// (limit <= 0 returns all retained).
func (l *QueryLog) Recent(limit int) []QueryStats {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.filled {
		n = len(l.ring)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]QueryStats, 0, limit)
	for i := 1; i <= limit; i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// Slow returns the retained slowest queries, slowest first.
func (l *QueryLog) Slow() []QueryStats {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]QueryStats(nil), l.slow...)
}

// Totals returns the cumulative sums over every query ever recorded.
func (l *QueryLog) Totals() QueryTotals {
	if l == nil {
		return QueryTotals{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totals
}

// ThresholdSeconds returns the slow-query threshold (0 when unset).
func (l *QueryLog) ThresholdSeconds() float64 {
	if l == nil {
		return 0
	}
	return l.threshold
}

// QueriesPath and SlowLogPath are where MountQueryLog serves the log.
const (
	QueriesPath = "/debug/queries"
	SlowLogPath = "/debug/slowlog"
)

// QueryLogDoc is the document of both query-log endpoints.
type QueryLogDoc struct {
	Totals           QueryTotals  `json:"totals"`
	ThresholdSeconds float64      `json:"threshold_seconds,omitempty"`
	Queries          []QueryStats `json:"queries"`
}

// MountQueryLog serves the recent-queries ring at /debug/queries and the
// slow-query log at /debug/slowlog (?limit=N caps either), with the
// cumulative totals alongside. The source is called per request and may
// return nil (attribution off → 404).
func MountQueryLog(mux *http.ServeMux, source func() *QueryLog) {
	mount := func(path string, queries func(l *QueryLog, limit int) []QueryStats) {
		HandleJSON(mux, path, func(p Params) (any, int, error) {
			l := source()
			if l == nil {
				return nil, http.StatusNotFound, errors.New("query log off")
			}
			return QueryLogDoc{Totals: l.Totals(), ThresholdSeconds: l.ThresholdSeconds(),
				Queries: queries(l, p.Limit)}, 0, nil
		})
	}
	mount(QueriesPath, (*QueryLog).Recent)
	mount(SlowLogPath, func(l *QueryLog, limit int) []QueryStats {
		slow := l.Slow()
		if limit > 0 && len(slow) > limit {
			slow = slow[:limit]
		}
		return slow
	})
}
