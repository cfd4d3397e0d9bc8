package registry

import (
	"context"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/driver"
	"repro/internal/partition"
)

// BenchmarkServeSkyline measures the full handler path for a cached
// skyline read, split by whether per-query attribution is on — the
// acceptance check is that the stats arm stays within 5% of nostats.
func BenchmarkServeSkyline(b *testing.B) {
	for _, arm := range []struct {
		name  string
		stats bool
	}{{"stats", true}, {"nostats", false}} {
		b.Run(arm.name, func(b *testing.B) {
			r, err := New(context.Background(), seedBench(400), driver.Options{Scheme: partition.Angular})
			if err != nil {
				b.Fatal(err)
			}
			r.EnableQueryStats(arm.stats)
			h := r.Handler()
			req := httptest.NewRequest("GET", "/skyline", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
			}
		})
	}
}

// BenchmarkServeExplain measures the instrumented re-merge path — the
// expected cost of asking "why", for comparison against the cached read.
func BenchmarkServeExplain(b *testing.B) {
	r, err := New(context.Background(), seedBench(400), driver.Options{Scheme: partition.Angular})
	if err != nil {
		b.Fatal(err)
	}
	h := r.Handler()
	req := httptest.NewRequest("GET", "/skyline?explain=1", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
	}
}

// BenchmarkServeMiss measures a skyline read the cache cannot answer — a
// ceiling no read has asked — through the handler, over catalogues of 2 000
// and 20 000 services with the same 200-service skyline: its ns/op and
// allocs/op should not grow with the catalogue.
func BenchmarkServeMiss(b *testing.B) {
	for _, size := range []struct {
		name  string
		total int
	}{{"2k", 2000}, {"20k", 20000}} {
		r := dominatedCatalogue(b, 200, size.total)
		h := r.Handler()
		b.Run("catalogue="+size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				url := "/skyline?max=" + strconv.Itoa(1e9+i) + "," + strconv.Itoa(1e9+b.N)
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", url, nil))
			}
		})
	}
}

func seedBench(n int) []Service {
	return seedServices(n)
}
