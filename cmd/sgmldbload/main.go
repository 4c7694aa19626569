// Command sgmldbload is the load generator for sgmldbd: it drives a
// mixed read workload (ad-hoc /v1/query and prepared /v1/execute in a
// configurable ratio) from concurrent workers and reports throughput and
// latency percentiles (p50/p99/p999) as JSON. The recorded service
// numbers are the repo benchmark's (bench/README.md: `client.p50_ms`,
// `service.http_tax_us`).
//
// Usage:
//
//	sgmldbload [-addr http://127.0.0.1:8344] [-key K] [-n 1000] [-c 8]
//	           [-query "select a from a in Articles"] [-prepared 0.5]
//	           [-load doc.sgml] [-load-count N] [-o report.json]
//
// With -load, before the read burst the given SGML document is loaded
// -load-count times through POST /v1/load (one document per batch) — the
// write leg the replication smoke uses to make a primary's feed move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sgmldbload:", err)
		os.Exit(1)
	}
}

// report is the JSON document written when the run finishes.
type report struct {
	Addr       string  `json:"addr"`
	Query      string  `json:"query"`
	Requests   int     `json:"requests"`
	Workers    int     `json:"workers"`
	Prepared   float64 `json:"prepared_fraction"`
	Errors     int     `json:"errors"`
	ElapsedMS  int64   `json:"elapsed_ms"`
	Throughput float64 `json:"requests_per_second"`
	P50US      int64   `json:"p50_us"`
	P99US      int64   `json:"p99_us"`
	P999US     int64   `json:"p999_us"`
	MaxUS      int64   `json:"max_us"`
}

func run() error {
	addr := flag.String("addr", "http://127.0.0.1:8344", "server base URL")
	key := flag.String("key", "", "API key (empty for an open-mode server)")
	n := flag.Int("n", 1000, "total requests")
	workers := flag.Int("c", 8, "concurrent workers")
	query := flag.String("query", "select a from a in Articles", "query to drive")
	prepared := flag.Float64("prepared", 0.5, "fraction of requests via a prepared handle (0..1)")
	loadFile := flag.String("load", "", "SGML document to load before the read burst")
	loadCount := flag.Int("load-count", 1, "how many times to load the -load document")
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	flag.Parse()
	if *n <= 0 || *workers <= 0 || *prepared < 0 || *prepared > 1 {
		return fmt.Errorf("invalid -n/-c/-prepared")
	}

	client := &http.Client{Timeout: 60 * time.Second}
	post := func(path string, body any) (int, map[string]any, error) {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		req, err := http.NewRequest("POST", *addr+path, bytes.NewReader(raw))
		if err != nil {
			return 0, nil, err
		}
		if *key != "" {
			req.Header.Set("Authorization", "Bearer "+*key)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, nil, err
		}
		var decoded map[string]any
		if len(data) > 0 {
			if err := json.Unmarshal(data, &decoded); err != nil {
				return resp.StatusCode, nil, fmt.Errorf("non-JSON response: %q", data)
			}
		}
		return resp.StatusCode, decoded, nil
	}

	if *loadFile != "" {
		src, err := os.ReadFile(*loadFile)
		if err != nil {
			return fmt.Errorf("reading -load file: %w", err)
		}
		for i := 0; i < *loadCount; i++ {
			status, body, err := post("/v1/load", map[string]any{"documents": []string{string(src)}})
			if err != nil {
				return fmt.Errorf("load %d: %w", i+1, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("load %d: status %d: %v", i+1, status, body)
			}
		}
	}

	// One warm-up round trip doubles as the health check.
	status, body, err := post("/v1/query", map[string]any{"query": *query})
	if err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("warm-up query: status %d: %v", status, body)
	}

	handle := ""
	if *prepared > 0 {
		status, body, err := post("/v1/prepare", map[string]any{"query": *query})
		if err != nil {
			return fmt.Errorf("prepare: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("prepare: status %d body %v", status, body)
		}
		handle, _ = body["handle"].(string)
		if handle == "" {
			return fmt.Errorf("prepare returned no handle: %v", body)
		}
	}

	// Every worker pulls the next request index from the shared counter;
	// the index decides ad-hoc vs prepared so the mix is exact, not
	// probabilistic, and runs are reproducible.
	preparedEvery := 0
	if *prepared > 0 {
		preparedEvery = int(1 / *prepared)
	}
	latencies := make([]int64, *n)
	var next, errCount atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				var (
					status int
					err    error
					t0     = time.Now()
				)
				if preparedEvery > 0 && i%preparedEvery == 0 {
					status, _, err = post("/v1/execute/"+handle, map[string]any{})
				} else {
					status, _, err = post("/v1/query", map[string]any{"query": *query})
				}
				latencies[i] = time.Since(t0).Microseconds()
				if err != nil || status != http.StatusOK {
					errCount.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) int64 {
		idx := int(p * float64(len(latencies)))
		if idx >= len(latencies) {
			idx = len(latencies) - 1
		}
		return latencies[idx]
	}
	r := report{
		Addr:       *addr,
		Query:      *query,
		Requests:   *n,
		Workers:    *workers,
		Prepared:   *prepared,
		Errors:     int(errCount.Load()),
		ElapsedMS:  elapsed.Milliseconds(),
		Throughput: float64(*n) / elapsed.Seconds(),
		P50US:      pct(0.50),
		P99US:      pct(0.99),
		P999US:     pct(0.999),
		MaxUS:      latencies[len(latencies)-1],
	}
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out != "" {
		return os.WriteFile(*out, enc, 0o644)
	}
	_, err = os.Stdout.Write(enc)
	return err
}
