package registry

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/points"
)

// catalogueScan is the reference for matchServices: every published
// service's points.Key tested against the skyline's keys.
func catalogueScan(r *Registry, sky points.Set) []Service {
	keys := make(map[string]struct{}, len(sky))
	for _, p := range sky {
		keys[points.Key(p)] = struct{}{}
	}
	var out []Service
	r.mu.RLock()
	for _, s := range r.services {
		if _, ok := keys[points.Key(points.Point(s.QoS))]; ok {
			out = append(out, s)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// checkCoords asserts the coordinate index holds exactly the catalogue:
// every service once, in its own vector's bucket.
func checkCoords(t *testing.T, r *Registry) {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	entries := 0
	for h, b := range r.coords.buckets {
		for _, e := range b {
			entries++
			if s, ok := r.services[e.Name]; !ok || !sameBits(s.QoS, e.QoS) || r.coords.hash(e.QoS) != h {
				t.Errorf("index entry %q %v in bucket %x matches no catalogue entry", e.Name, e.QoS, h)
			}
		}
	}
	if entries != len(r.services) {
		t.Errorf("index holds %d entries, catalogue %d", entries, len(r.services))
	}
}

// oneBucket rebuilds r's coordinate index over a single bucket, so every
// vector collides and every lookup must tell them apart by their bits.
func oneBucket(r *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.coords = coordIndex{hash: func([]float64) uint64 { return 0 }, buckets: map[uint64][]Service{}}
	for _, s := range r.services {
		r.coords.add(s)
	}
}

func ceilingURL(max []float64) string {
	parts := make([]string, len(max))
	for i, v := range max {
		parts[i] = strconv.FormatFloat(v, 'f', -1, 64)
	}
	return "/skyline?max=" + strings.Join(parts, ",")
}

func get(t *testing.T, r *Registry, url string) string {
	t.Helper()
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	if w.Code != 200 {
		t.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
	}
	return w.Body.String()
}

func marshalLine(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// agree compares every plain, ceiling and EXPLAIN response with what the
// catalogue scan renders over the same skyline, byte for byte. Every
// ceiling is one no read has asked yet, so each is a miss.
func agree(t *testing.T, r *Registry, fresh *int) {
	t.Helper()
	sky := r.ix.View().Global()
	if got, want := get(t, r, "/skyline"), marshalLine(t, catalogueScan(r, sky)); got != want {
		t.Errorf("plain read\n got %s want %s", got, want)
	}
	// Row by row, too: a whole skyline holds +0 and -0 rows together.
	for _, p := range sky {
		one := points.Set{p}
		if got, want := marshalLine(t, r.matchServices(one)), marshalLine(t, catalogueScan(r, one)); got != want {
			t.Errorf("row %v\n got %s want %s", p, got, want)
		}
	}
	var ceilings [][]float64
	for _, p := range sky {
		*fresh++
		ceilings = append(ceilings, []float64{p[0], p[1] + float64(*fresh)*1e-9})
	}
	*fresh++
	ceilings = append(ceilings, []float64{-1e9 - float64(*fresh), -1e9}) // holds nothing: "null"
	for _, max := range ceilings {
		var in points.Set
		for _, p := range sky {
			if withinMax(p, max) {
				in = append(in, p)
			}
		}
		if got, want := get(t, r, ceilingURL(max)), marshalLine(t, catalogueScan(r, in)); got != want {
			t.Errorf("read under %v\n got %s want %s", max, got, want)
		}
	}
	var ex struct {
		Services json.RawMessage `json:"services"`
	}
	if err := json.Unmarshal([]byte(get(t, r, "/skyline?explain=1")), &ex); err != nil {
		t.Fatal(err)
	}
	exSky, _ := r.ix.Explain(context.Background())
	if got, want := string(ex.Services)+"\n", marshalLine(t, catalogueScan(r, exSky)); got != want {
		t.Errorf("explain\n got %s want %s", got, want)
	}
	checkCoords(t, r)
}

// TestMatchServicesAgreesWithCatalogueScan: the coordinate index answers
// every read as the walk over the whole catalogue did — coordinate-equal
// services under different names, ±0 told apart, colliding hashes told
// apart by their bits, and a publish whose fold fails never listed — with
// the real hash and with every vector in one bucket, and after a burst of
// concurrent publishes, rollbacks and reads.
func TestMatchServicesAgreesWithCatalogueScan(t *testing.T) {
	for _, table := range []string{"hash", "one-bucket"} {
		t.Run(table, func(t *testing.T) {
			r, err := New(context.Background(), seedServices(40), driver.Options{Scheme: partition.Angular})
			if err != nil {
				t.Fatal(err)
			}
			if table == "one-bucket" {
				oneBucket(r)
			}
			fresh := 0
			agree(t, r, &fresh)

			publish := func(name string, qos ...float64) {
				t.Helper()
				if _, err := r.Publish(Service{Name: name, QoS: qos}); err != nil {
					t.Fatalf("publish %s: %v", name, err)
				}
			}
			// Coordinate-equal names, on a seed of the skyline and off it.
			publish("dup-a", 0, 40)
			publish("dup-b", 0, 40)
			publish("dup-c", 41, 79)
			agree(t, r, &fresh)

			// ±0: equal to the dominance test, distinct to the match.
			publish("zero-pos", 41, 0)
			publish("zero-neg", 41, math.Copysign(0, -1))
			publish("zero-neg-twin", 41, math.Copysign(0, -1))
			agree(t, r, &fresh)

			// A fold that fails rolls its name back out of both maps.
			for i, bad := range [][]float64{{math.NaN(), -2}, {math.Inf(1), -2}, {-2, math.Inf(-1)}} {
				name := fmt.Sprintf("bad-%d", i)
				if _, err := r.Publish(Service{Name: name, QoS: bad}); err == nil {
					t.Fatalf("publish of %v accepted", bad)
				}
				agree(t, r, &fresh)
				if strings.Contains(get(t, r, "/skyline"), name) {
					t.Errorf("%s listed after its fold failed", name)
				}
				publish(name, 500, 500) // the name is free again
			}
			agree(t, r, &fresh)

			// Publishes, failing publishes and reads at once.
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						qos := []float64{float64((g*7 + i*3) % 23), float64((g*5 + i*11) % 19)}
						if i%5 == 0 {
							qos[i%2] = math.NaN()
						}
						_, _ = r.Publish(Service{Name: fmt.Sprintf("conc-%d-%d", g, i), QoS: qos})
					}
				}(g)
			}
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := r.Handler()
					for i := 0; i < 40; i++ {
						url := "/skyline"
						if g == 1 {
							url = ceilingURL([]float64{float64(i), 30})
						}
						h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", url, nil))
					}
				}(g)
			}
			wg.Wait()
			agree(t, r, &fresh)
			if n := r.Len(); n != 40+6+3+4*32 {
				t.Errorf("%d services published, want %d", n, 40+6+3+4*32)
			}
		})
	}
}

// dominatedCatalogue builds a registry of seedServices(seeds) and grows
// its catalogue to total services with publishes every seed dominates, so
// the skyline — and every read's answer — stays the seeds'.
func dominatedCatalogue(tb testing.TB, seeds, total int) *Registry {
	tb.Helper()
	r, err := New(context.Background(), seedServices(seeds), driver.Options{Scheme: partition.Angular})
	if err != nil {
		tb.Fatal(err)
	}
	const publishers = 4
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total-seeds; i += publishers {
				qos := []float64{float64(4*seeds + i%97), float64(4*seeds + i/97)}
				if _, err := r.Publish(Service{Name: fmt.Sprintf("dominated-%d", i), QoS: qos}); err != nil {
					tb.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return r
}

// TestMissCostIsTheAnswer: a read the cache cannot answer costs its
// answer, not the catalogue — with the same skyline, a miss allocates as
// often over 200 services as over 20 200, where the catalogue walk it
// replaced allocated some 80 000 times more.
func TestMissCostIsTheAnswer(t *testing.T) {
	small := dominatedCatalogue(t, 200, 200)
	large := dominatedCatalogue(t, 200, 20200)
	if len(small.Skyline()) != len(large.Skyline()) {
		t.Fatal("the dominated publishes changed the skyline")
	}
	miss := func(r *Registry) float64 {
		fresh := 0
		return testing.AllocsPerRun(50, func() {
			fresh++ // a ceiling no read has asked: a miss
			if _, err := r.ConstrainedSkylineContext(context.Background(), []float64{1e9 + float64(fresh), 1e9}); err != nil {
				t.Fatal(err)
			}
		})
	}
	slack := 0.0
	if raceEnabled {
		slack = 16 // a catalogue walk costs tens of thousands
	}
	if a, b := miss(small), miss(large); math.Abs(a-b) > slack {
		t.Errorf("a miss allocates %.0f times over 200 services, %.0f over 20 200", a, b)
	}
}
