package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metrics maps a metric name to its value; units live in the definitions.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// metricDef declares one metric of the contract. BENCHMARK.json repeats
// this table; TestBenchmarkJSONMatchesDefinitions keeps the two the same.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median a change may worsen it by
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them from its untraced run; README.md says what
// each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"slo_ok_frac", "frac", "higher", 0.01},
	{"load_p50_ms", "ms", "lower", 0.25},
	{"load_p95_ms", "ms", "lower", 0.25},
	{"load_docs_per_s", "docs/s", "higher", 0.20},
	{"replica_bootstrap_s", "s", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"disk_bytes_per_doc_byte", "ratio", "lower", 0.02},
	{"heap_bytes_per_doc_byte", "ratio", "lower", 0.03},
}

// perLayer are the traced run's metrics, named <module>.<what>. They have
// no bound.
var perLayer = []metricDef{
	{Name: "sgml.parse_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "sgml.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dtdmap.load_us_per_batch_empty", Unit: "us", Better: "lower"},
	{Name: "dtdmap.load_us_per_batch_full", Unit: "us", Better: "lower"},
	{Name: "dtdmap.textof_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "store.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "store.objects_per_doc", Unit: "count", Better: "lower"},
	{Name: "store.value_bytes_per_doc_byte", Unit: "ratio", Better: "lower"},
	{Name: "store.save_ms", Unit: "ms", Better: "lower"},
	{Name: "store.load_ms", Unit: "ms", Better: "lower"},
	{Name: "store.save_bytes_per_doc_byte", Unit: "ratio", Better: "lower"},
	{Name: "text.clone_us", Unit: "us", Better: "lower"},
	{Name: "text.add_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "text.lookup_us", Unit: "us", Better: "lower"},
	{Name: "text.indexed_docs", Unit: "count", Better: "lower"},
	{Name: "text.vocabulary", Unit: "count", Better: "lower"},
	{Name: "oql.parse_us", Unit: "us", Better: "lower"},
	{Name: "oql.typecheck_us", Unit: "us", Better: "lower"},
	{Name: "oql.lower_us", Unit: "us", Better: "lower"},
	{Name: "oql.prepare_us", Unit: "us", Better: "lower"},
	{Name: "oql.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "algebra.translate_us", Unit: "us", Better: "lower"},
	{Name: "algebra.run_us", Unit: "us", Better: "lower"},
	{Name: "algebra.run_share_of_query", Unit: "ratio", Better: "lower"},
	{Name: "algebra.result_rows", Unit: "count", Better: "lower"},
	{Name: "calculus.eval_us", Unit: "us", Better: "lower"},
	{Name: "calculus.naive_over_algebra", Unit: "ratio", Better: "higher"},
	{Name: "facade.query_us", Unit: "us", Better: "lower"},
	{Name: "facade.prepared_us", Unit: "us", Better: "lower"},
	{Name: "facade.load_ms_per_batch_empty", Unit: "ms", Better: "lower"},
	{Name: "facade.load_ms_per_batch_full", Unit: "ms", Better: "lower"},
	{Name: "facade.load_residual_us", Unit: "us", Better: "lower"},
	{Name: "facade.load_durable_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.scrub_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.apply_record_us", Unit: "us", Better: "lower"},
	{Name: "facade.apply_checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.recover_tail_records", Unit: "count", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.encode_us_per_record", Unit: "us", Better: "lower"},
	{Name: "wal.decode_us_per_record", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_doc_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.checkpoint_write_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_bytes_per_doc_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.open_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.feed_frames_us", Unit: "us", Better: "lower"},
	{Name: "service.http_tax_us", Unit: "us", Better: "lower"},
	{Name: "service.follower_tax_us", Unit: "us", Better: "lower"},
	{Name: "service.load_tax_us", Unit: "us", Better: "lower"},
	{Name: "service.encode_us", Unit: "us", Better: "lower"},
	{Name: "service.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "service.feed_poll_ms", Unit: "ms", Better: "lower"},
	{Name: "service.feed_bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "service.checkpoint_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "service.follower_lag_records_p50", Unit: "count", Better: "lower"},
	{Name: "service.follower_lag_records_max", Unit: "count", Better: "lower"},
	{Name: "service.requests_shed", Unit: "count", Better: "lower"},
	{Name: "client.sent", Unit: "count", Better: "higher"},
	{Name: "client.ok", Unit: "count", Better: "higher"},
	{Name: "client.failed", Unit: "count", Better: "lower"},
	{Name: "client.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "go.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.stage_sum_over_call", Unit: "ratio", Better: "higher"},
}

// extraUnits gives the units of the ungated numbers a measured run prints
// beside its end-to-end metrics, all named window.<what> because they
// describe the measured window. A name that is a per-layer metric behind
// the prefix takes that metric's unit.
var extraUnits = map[string]string{
	"window.error_rate":               "frac",
	"window.client.late_p95_ms":       "ms",
	"window.client.saturation_p50_ms": "ms",
	"window.client.p99_ms":            "ms",
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func unitOf(name string) string {
	if unit, ok := extraUnits[name]; ok {
		return unit
	}
	name = strings.TrimPrefix(name, "window.")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// complete reports the contract metrics a result lacks.
func (r *result) complete() error {
	var missing []string
	for _, d := range defsFor(r.Trace) {
		if _, ok := r.Metrics[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: metrics not measured: %s", r.Workload, strings.Join(missing, ", "))
	}
	return nil
}

// print writes every metric as "workload metric value unit": the contract
// metrics, then the ungated extras, then the sample count behind each
// percentile.
func (r *result) print(w io.Writer) {
	for _, d := range defsFor(r.Trace) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, name := range sortedNames(r.Extras) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, name, r.Extras[name], unitOf(name))
	}
	for _, name := range sortedNames(r.Samples) {
		fmt.Fprintf(w, "%s samples.%s %.0f count\n", r.Workload, name, r.Samples[name])
	}
	if r.Trace {
		r.printFlags(w)
	}
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printFlags marks traced ratios outside the range in which the stage
// spans can be trusted to add up to the call they reconstruct.
func (r *result) printFlags(w io.Writer) {
	if v := r.Metrics["trace.stage_sum_over_call"]; v < 0.8 || v > 1.2 {
		fmt.Fprintf(w, "%s FLAG trace.stage_sum_over_call %.3f is outside 0.8-1.2\n", r.Workload, v)
	}
}

// contractLine is the last line of a driver run's standard output.
func (r *result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defsFor(r.Trace) {
		out.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	raw, _ := json.Marshal(out) // numbers and strings always marshal
	return string(raw)
}

// fileName is where -all and single runs leave a result under the output
// directory.
func (r *result) fileName() string {
	if r.Trace {
		return "trace-" + r.Workload + ".json"
	}
	return r.Workload + ".json"
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// host describes where a set was measured. Latencies are this sandbox's
// (loopback TCP, an overlay file system whose fsync costs about 200 µs),
// not a device's.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	FSType     string `json:"fs_type"`
	Note       string `json:"note"`
}

func hostInfo(scratch string) host {
	h := host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", FSType: "unknown",
		Note: "sandbox latencies: loopback TCP and the scratch directory's file system, not a device's",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("stat", "-f", "-c", "%T", scratch).Output(); err == nil {
		h.FSType = strings.TrimSpace(string(out))
	}
	return h
}

// set is a saved full set: every workload's measured and traced metrics,
// each as the list of values its runs gave. -compare reads two of these.
type set struct {
	Host      host                            `json:"host"`
	Seed      int64                           `json:"seed"`
	Seconds   int                             `json:"seconds"`
	Policy    string                          `json:"policy"`
	Workloads map[string]map[string][]float64 `json:"workloads"` // workload → metric → one value per run
	Failed    map[string]int                  `json:"failed"`    // workload → failed ops over all runs
	Attempted map[string]int                  `json:"attempted"`
	Schedules map[string]string               `json:"schedule_hashes"`
}

func newSet(h host, seed int64, seconds int) *set {
	return &set{
		Host: h, Seed: seed, Seconds: seconds,
		Policy: fmt.Sprintf("durable primary, checkpoint every %d records, explicit checkpoint then %d batches of %d articles before recovery",
			checkpointEvery, tailRecords, batchDocs),
		Workloads: map[string]map[string][]float64{}, Failed: map[string]int{}, Attempted: map[string]int{},
		Schedules: map[string]string{},
	}
}

func (s *set) add(r *result) {
	w := s.Workloads[r.Workload]
	if w == nil {
		w = map[string][]float64{}
		s.Workloads[r.Workload] = w
	}
	for _, group := range []metrics{r.Metrics, r.Extras} {
		for name, v := range group {
			w[name] = append(w[name], v)
		}
	}
	s.Failed[r.Workload] += r.Failed
	s.Attempted[r.Workload] += r.Attempted
	s.Schedules[r.Workload] = r.Schedule
}
