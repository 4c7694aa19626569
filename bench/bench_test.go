package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small is a workload scaled down to a corpus a test can load in well
// under a second; everything else about it — surface, loop, mix — stays.
func small(s *spec) *spec {
	c := *s
	c.docs, c.roots, c.traceOps, c.setups, c.reopens = 16, 16, 12, 2, 1
	return &c
}

// TestSmokeAllWorkloads runs every workload, measured and traced, at test
// scale: a one-second window over 16 articles. Every operation must be
// answered correctly and every contract metric must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, s := range specs {
		for _, run := range []struct {
			name string
			fn   func(*spec, int64, int, string) (*result, error)
			defs []metricDef
		}{{"measured", runMeasured, endToEnd}, {"traced", runTraced, perLayer}} {
			t.Run(s.name+"/"+run.name, func(t *testing.T) {
				res, err := run.fn(small(s), 7, 1, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d first error: %s", res.Correct, res.Failed, res.Attempted, res.FirstErr)
				}
				if err := res.complete(); err != nil {
					t.Fatal(err)
				}
				if len(res.Metrics) != len(run.defs) {
					t.Errorf("%d metrics reported, the contract has %d", len(res.Metrics), len(run.defs))
				}
				for name, v := range res.Metrics {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", name, v)
					}
					if !res.Trace && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
					}
				}
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
					t.Fatal(err)
				}
				if len(line.Metrics) != len(run.defs) || !line.Correct || line.Attempted != res.Attempted {
					t.Errorf("contract line %s", res.contractLine())
				}
				if res.Trace && len(res.Spans) == 0 {
					t.Error("traced run recorded no spans")
				}
				// The traced run's checkpoint must leave exactly the records
				// loaded after it in the log, or its feed probes would read a
				// truncated log.
				if got := res.Metrics["facade.recover_tail_records"]; res.Trace && got != applyRecords {
					t.Errorf("log tail holds %v records, want %d", got, applyRecords)
				}
			})
		}
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	for _, s := range specs {
		a, b := newSchedule(s, 11).hash(11, 2000), newSchedule(s, 11).hash(11, 2000)
		if a != b {
			t.Errorf("%s: the same seed gave schedules %x and %x", s.name, a, b)
		}
		if c := newSchedule(s, 12).hash(12, 2000); c == a {
			t.Errorf("%s: seeds 11 and 12 gave the same schedule %x", s.name, a)
		}
	}
}

// TestScheduleShares: one cycle holds each class in exactly its share,
// and a miss op never repeats a string.
func TestScheduleShares(t *testing.T) {
	sc := newSchedule(specByName("point_http"), 5)
	var prepared, miss int
	seen := map[string]bool{}
	for i, o := range sc.cycle {
		if o.prepared {
			prepared++
		}
		if o.miss {
			miss++
			text := sc.text(o, i)
			if seen[text] {
				t.Fatalf("never-seen string sent twice: %s", text)
			}
			seen[text] = true
		}
	}
	if prepared != cycleLen/2 || miss != cycleLen/10 {
		t.Errorf("prepared %d, miss %d of %d ops; want a half and a tenth", prepared, miss, cycleLen)
	}
	if n := len(sc.queries); n != 32 {
		t.Errorf("working set is %d strings, want 32", n)
	}
	if n := len(newSchedule(specByName("text_http"), 5).queries); n != 48 {
		t.Errorf("text_http has %d distinct strings, want 48", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},  // nested
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25}, // grandchild: counts against a, not parent
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 130}, // sticks out of the parent by 30
		{ID: 6, Name: "alone", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (50 + 10), // a∪b covers 10..60, c covers 90..100
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 40,
		6: 60,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := pairedMedian([]span{
		{Name: "x", Request: 1, Start: 0, End: 5000}, {Name: "y", Request: 1, Start: 0, End: 2000},
		{Name: "x", Request: 2, Start: 0, End: 9000}, {Name: "y", Request: 2, Start: 0, End: 8000},
		{Name: "x", Request: 3, Start: 0, End: 1000},
	}, "x", "y"); got != 2 {
		t.Errorf("paired median = %v us, want 2 (requests 1 and 2 only)", got)
	}
}

func TestPercentilesAndSampleRule(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.50: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(asc, p); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", p*100, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty samples must give 0")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{9, 1, 5}) != 5 {
		t.Error("median")
	}
	// p95 needs 20 samples beyond it: 400 in all; p99 needs 2,000.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{399, 0.95, false}, {400, 0.95, true}, {1999, 0.99, false}, {2000, 0.99, true}} {
		if got := supportsTail(c.n, c.p); got != c.want {
			t.Errorf("supportsTail(%d, %v) = %v", c.n, c.p, got)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if spread, ok := quartileSpread(asc[:10]); !ok || math.Abs(spread-1.0) > 1e-12 {
		t.Errorf("quartile spread of 1..10 = %v, want 1", spread)
	}
	if _, ok := quartileSpread([]float64{3}); ok {
		t.Error("one value has no spread")
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json, which the
// driver reads, the same as the tables this program reports from.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if strings.Join(decl.Command, " ") != "sh bench/run.sh" || strings.Join(decl.Paths, " ") != "bench" {
		t.Errorf("command %q, paths %q", decl.Command, decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d", decl.RunSeconds)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := decl.Workloads[i]; w.Name != s.name || w.Why != s.why || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %q (%d chars of why), defined %q", i, w.Name, len(w.Why), s.name)
		}
	}
	same := func(what string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d declared, %d defined", what, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: declared %+v, defined %+v", what, i, m, d)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s has a bound", what, m.Name)
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound declared %v, defined %v", what, m.Name, m.Bound, d.Bound)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be declared")
	}
	for _, d := range endToEnd {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, change func(*set)) string {
		s := newSet(host{}, 1, 10)
		for _, sp := range specs {
			m := map[string][]float64{}
			for _, d := range endToEnd {
				m[d.Name] = []float64{100, 100.1, 100.2, 100.3}
			}
			s.Workloads[sp.name], s.Attempted[sp.name] = m, 1000
		}
		change(s)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := save("a.json", func(*set) {})
	for _, c := range []struct {
		name   string
		change func(*set)
		worse  bool
		want   string
	}{
		{"same", func(*set) {}, false, ""},
		{"slower within bound", func(s *set) { s.Workloads["path_nav"]["query_p50_ms"] = []float64{105, 106, 107, 108} }, false, ""},
		{"slower beyond bound", func(s *set) { s.Workloads["path_nav"]["query_p50_ms"] = []float64{140, 141, 142, 143} }, true, "WORSE"},
		{"lower throughput", func(s *set) { s.Workloads["text_http"]["query_qps"] = []float64{60, 61, 62, 63} }, true, "WORSE"},
		{"higher throughput", func(s *set) { s.Workloads["text_http"]["query_qps"] = []float64{150, 151, 152, 153} }, false, "better"},
		{"spread wider than bound", func(s *set) { s.Workloads["point_http"]["query_p95_ms"] = []float64{100, 160, 220, 280} }, false, "unresolved"},
		{"more failures", func(s *set) { s.Failed["ingest_mixed"] = 1 }, true, "WORSE"},
	} {
		var out bytes.Buffer
		worse, err := compareSets(&out, base, save("b.json", c.change))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: worse=%v, want %v and %q in:\n%s", c.name, worse, c.worse, c.want, out.String())
		}
	}
}
