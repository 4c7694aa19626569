package sgmldb_test

// Service macro-benchmarks (recorded in the repo benchmark as
// `service.http_tax_us` and the HTTP workloads' `query_p50_ms`; see
// bench/README.md): the full network round
// trip — HTTP request over loopback, auth, admission, query execution,
// JSON encoding — measured from the client side, the way a tenant sees
// the service.
//
//	BenchmarkServiceQuery    sequential ad-hoc POST /v1/query
//	BenchmarkServiceExecute  sequential POST /v1/execute over one handle
//	BenchmarkServiceMixed    concurrent workers, 50/50 ad-hoc/prepared,
//	                         reporting p50/p99/p999 latency percentiles
//
// This file is an external test package (package sgmldb_test) because it
// imports internal/service, which itself imports sgmldb.
//
// Run with: go test -run '^$' -bench 'Service' .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgmldb"
	"sgmldb/internal/service"
)

// benchService starts an open-mode service over a database holding ndocs
// article documents and returns the httptest server plus a prepared
// handle for the benchmark query.
func benchService(b *testing.B, ndocs int) (*httptest.Server, string) {
	b.Helper()
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		b.Fatal(err)
	}
	doc, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		b.Fatal(err)
	}
	db, err := sgmldb.OpenDTD(string(dtd))
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]string, ndocs)
	for i := range srcs {
		srcs[i] = string(doc)
	}
	if _, err := db.LoadDocuments(srcs); err != nil {
		b.Fatal(err)
	}
	srv, err := service.New(db, service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)

	status, body := benchPost(b, ts, "/v1/prepare", map[string]any{"query": benchServiceQuery})
	if status != http.StatusOK {
		b.Fatalf("prepare: status %d body %v", status, body)
	}
	handle, _ := body["handle"].(string)
	if handle == "" {
		b.Fatalf("prepare returned no handle: %v", body)
	}
	return ts, handle
}

const benchServiceQuery = `select a from a in Articles`

func benchPost(b *testing.B, ts *httptest.Server, path string, body any) (int, map[string]any) {
	b.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		b.Fatalf("non-JSON response %q: %v", data, err)
	}
	return resp.StatusCode, decoded
}

// BenchmarkServiceQuery measures the sequential ad-hoc path: every
// iteration parses, typechecks, plans (plan-cache hit after the first),
// runs and JSON-encodes over a real HTTP round trip.
func BenchmarkServiceQuery(b *testing.B) {
	ts, _ := benchService(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, _ := benchPost(b, ts, "/v1/query", map[string]any{"query": benchServiceQuery})
		if status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	}
}

// BenchmarkServiceExecute measures the prepared path: the handle skips
// per-call parse/typecheck/plan, so the delta to ServiceQuery is the
// compilation cost the wire handle amortizes away.
func BenchmarkServiceExecute(b *testing.B) {
	ts, handle := benchService(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, _ := benchPost(b, ts, "/v1/execute/"+handle, map[string]any{})
		if status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	}
}

// BenchmarkServiceMixed is the macro-benchmark: concurrent workers drive
// a 50/50 mix of ad-hoc queries and prepared executes, and the benchmark
// reports client-observed latency percentiles alongside throughput.
func BenchmarkServiceMixed(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("c=%d", workers), func(b *testing.B) {
			ts, handle := benchService(b, 8)
			latencies := make([]int64, b.N)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						t0 := time.Now()
						var status int
						if i%2 == 0 {
							status, _ = benchPost(b, ts, "/v1/execute/"+handle, map[string]any{})
						} else {
							status, _ = benchPost(b, ts, "/v1/query", map[string]any{"query": benchServiceQuery})
						}
						latencies[i] = time.Since(t0).Microseconds()
						if status != http.StatusOK {
							b.Errorf("status %d", status)
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
			pct := func(p float64) float64 {
				idx := int(p * float64(len(latencies)))
				if idx >= len(latencies) {
					idx = len(latencies) - 1
				}
				return float64(latencies[idx])
			}
			b.ReportMetric(pct(0.50), "p50-us")
			b.ReportMetric(pct(0.99), "p99-us")
			b.ReportMetric(pct(0.999), "p999-us")
		})
	}
}
