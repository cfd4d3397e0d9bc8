package registry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/points"
)

func getBody(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestCacheHitMiss: the first skyline read fills the cache (merge path),
// repeats serve byte-identical bodies from it (cached path), and the
// counters record exactly that.
func TestCacheHitMiss(t *testing.T) {
	r := newRegistry(t)
	h := r.Handler()

	hits0, misses0 := r.cacheHits.Value(), r.cacheMisses.Value()
	cached0, merge0 := r.pathCached.Value(), r.pathMerge.Value()

	_, first := getBody(t, h, "/skyline")
	for i := 0; i < 3; i++ {
		_, again := getBody(t, h, "/skyline")
		if again != first {
			t.Fatal("cached body differs from computed body")
		}
	}
	if got := r.cacheMisses.Value() - misses0; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := r.cacheHits.Value() - hits0; got != 3 {
		t.Errorf("hits = %d, want 3", got)
	}
	if got := r.pathMerge.Value() - merge0; got != 1 {
		t.Errorf("merge path count = %d, want 1", got)
	}
	if got := r.pathCached.Value() - cached0; got != 3 {
		t.Errorf("cached path count = %d, want 3", got)
	}

	// The cached body is real JSON and matches the programmatic API.
	var services []Service
	if err := json.Unmarshal([]byte(first), &services); err != nil {
		t.Fatal(err)
	}
	want := r.Skyline()
	if len(services) != len(want) {
		t.Errorf("body has %d services, API returns %d", len(services), len(want))
	}
}

// TestCacheInvalidationMinimality: a publish that enters the skyline
// evicts the cached result; a dominated publish — which cannot change
// any answer — must NOT evict it. This is the dominance-aware rule.
func TestCacheInvalidationMinimality(t *testing.T) {
	r := newRegistry(t)
	h := r.Handler()

	_, before := getBody(t, h, "/skyline")

	// Dominated publish: far outside the seed anti-chain. No eviction —
	// the next read is a hit and the body is unchanged.
	if in, err := r.Publish(Service{Name: "dominated", QoS: []float64{1e6, 1e6}}); err != nil || in {
		t.Fatalf("dominated publish: in=%v err=%v", in, err)
	}
	hits0 := r.cacheHits.Value()
	_, after := getBody(t, h, "/skyline")
	if after != before {
		t.Error("dominated publish changed the served skyline")
	}
	if r.cacheHits.Value() != hits0+1 {
		t.Error("dominated publish evicted the cache (rule must be minimal)")
	}

	// Skyline-entering publish: must evict, and the fresh body includes it.
	if in, err := r.Publish(Service{Name: "hero", QoS: []float64{-1, -1}}); err != nil || !in {
		t.Fatalf("hero publish: in=%v err=%v", in, err)
	}
	misses0 := r.cacheMisses.Value()
	_, fresh := getBody(t, h, "/skyline")
	if r.cacheMisses.Value() != misses0+1 {
		t.Error("entering publish did not evict the cached skyline")
	}
	if !strings.Contains(fresh, `"hero"`) {
		t.Error("fresh body does not include the newly entered service")
	}
}

// TestConstrainedSkyline: ?max= serves the skyline under a QoS ceiling,
// caches it under its own signature with its own invalidation scope, and
// unsound or malformed bounds are rejected.
func TestConstrainedSkyline(t *testing.T) {
	r, err := New(context.Background(), []Service{
		{Name: "a", QoS: []float64{1, 9}},
		{Name: "b", QoS: []float64{5, 5}},
		{Name: "c", QoS: []float64{9, 1}},
		{Name: "d", QoS: []float64{6, 6}}, // dominated by b
	}, driver.Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handler()

	// Ceiling that excludes a and c: only b competes (d is dominated).
	code, body := getBody(t, h, "/skyline?max=6,6")
	if code != http.StatusOK {
		t.Fatalf("constrained read: status %d: %s", code, body)
	}
	var got []Service
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("constrained skyline = %+v, want [b]", got)
	}

	// Same answer from the programmatic API (now a cache hit).
	hits0 := r.cacheHits.Value()
	services, err := r.ConstrainedSkylineContext(context.Background(), []float64{6, 6})
	if err != nil {
		t.Fatal(err)
	}
	_ = services
	if code, body2 := getBody(t, h, "/skyline?max=6,6"); code != http.StatusOK || body2 != body {
		t.Error("constrained cache hit served a different body")
	}
	if r.cacheHits.Value() <= hits0 {
		t.Error("repeated constrained read was not a cache hit")
	}

	// A publish entering OUTSIDE the ceiling must not evict this entry...
	if in, err := r.Publish(Service{Name: "edge", QoS: []float64{0.5, 20}}); err != nil || !in {
		t.Fatalf("edge publish: in=%v err=%v", in, err)
	}
	hits1 := r.cacheHits.Value()
	getBody(t, h, "/skyline?max=6,6")
	if r.cacheHits.Value() != hits1+1 {
		t.Error("out-of-ceiling publish evicted the constrained entry")
	}
	// ...while one entering INSIDE it must.
	if in, err := r.Publish(Service{Name: "inside", QoS: []float64{2, 2}}); err != nil || !in {
		t.Fatalf("inside publish: in=%v err=%v", in, err)
	}
	_, fresh := getBody(t, h, "/skyline?max=6,6")
	var freshServices []Service
	if err := json.Unmarshal([]byte(fresh), &freshServices); err != nil {
		t.Fatal(err)
	}
	names := fmt.Sprint(freshServices)
	if !strings.Contains(names, "inside") {
		t.Errorf("constrained result after in-ceiling publish = %v, want inside", names)
	}
	for _, s := range freshServices {
		if s.Name == "b" {
			t.Error("b survived although inside (2,2) dominates it")
		}
	}

	// Rejections: min bounds (unsound), wrong arity, garbage, explain+max.
	for _, path := range []string{
		"/skyline?min=1,1",
		"/skyline?max=1,2,3",
		"/skyline?max=abc,1",
		"/skyline?explain=1&max=1,2",
	} {
		if code, _ := getBody(t, h, path); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
	}
	if _, err := r.ConstrainedSkylineContext(context.Background(), []float64{1}); err == nil {
		t.Error("wrong-arity constraint accepted")
	}
}

// TestConstrainedMatchesBatchOracle: the ceiling-filtered incremental
// read equals a from-scratch constrained skyline over all services,
// across a stream of publishes.
func TestConstrainedMatchesBatchOracle(t *testing.T) {
	seeds := seedServices(30)
	r, err := New(context.Background(), seeds, driver.Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}

	all := append([]Service(nil), seeds...)
	max := []float64{40, 40}
	oracle := func() map[string]int {
		// Constrained skyline oracle: filter to the ceiling, then BNL.
		var box []Service
		for _, s := range all {
			if withinMax(points.Point(s.QoS), points.Point(max)) {
				box = append(box, s)
			}
		}
		out := map[string]int{}
		for _, s := range box {
			dominated := false
			for _, q := range box {
				if points.DominatesOrEqual(points.Point(q.QoS), points.Point(s.QoS)) &&
					!points.Point(q.QoS).Equal(points.Point(s.QoS)) {
					dominated = true
					break
				}
			}
			if !dominated {
				out[s.Name]++
			}
		}
		return out
	}

	check := func(step int) {
		got, err := r.ConstrainedSkylineContext(context.Background(), max)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle()
		if len(got) != len(want) {
			t.Fatalf("step %d: constrained skyline %d services, oracle %d", step, len(got), len(want))
		}
		for _, s := range got {
			if want[s.Name] == 0 {
				t.Fatalf("step %d: %s not in oracle", step, s.Name)
			}
		}
	}

	check(-1)
	for i := 0; i < 40; i++ {
		s := Service{Name: fmt.Sprintf("new-%03d", i), QoS: []float64{float64((i*7)%60 + 1), float64((i*13)%60 + 1)}}
		if _, err := r.Publish(s); err != nil {
			t.Fatal(err)
		}
		all = append(all, s)
		check(i)
	}
}
