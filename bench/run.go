package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sgmldb"
	"sgmldb/internal/corpus"
	"sgmldb/internal/object"
)

// tally counts requests sent and how they ended. A refused, failed,
// timed-out or wrong-answer request is a failed op.
type tally struct {
	sent, ok, failed int
	firstErr         error
}

func (t *tally) add(err error) {
	t.sent++
	if err == nil {
		t.ok++
		return
	}
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// request is what one HTTP op sends and the answer it must get.
type request struct {
	url  string
	body []byte
	want uint64
}

// request resolves op number i: a prepared handle, the pooled ad-hoc
// body, or the body of a never-seen string (built here, so callers that
// time from a due time resolve their requests before the window opens).
func (fx *fixture) request(o op, i int) request {
	r := request{url: fx.node.url + "/v1/query", body: fx.bodies[o.query], want: fx.want[o.query]}
	switch {
	case o.prepared:
		r.url, r.body = fx.handles[o.query], nil
	case o.miss:
		r.body = queryBody(fx.sched.text(o, i))
	}
	return r
}

// do sends op number i and returns its latency. Only the call into the
// system is timed; the answer is hash-checked after the clock stops.
func (fx *fixture) do(o op, i int) (time.Duration, error) {
	if !fx.spec.inproc {
		return fx.send(fx.request(o, i))
	}
	text := fx.sched.text(o, i)
	t0 := time.Now()
	v, err := fx.node.db.QueryContext(context.Background(), text)
	d := time.Since(t0)
	return d, checkValue(v, err, fx.want[o.query])
}

// send times one HTTP query and checks its rows.
func (fx *fixture) send(r request) (time.Duration, error) {
	t0 := time.Now()
	raw, err := fx.cl.post(r.url, r.body)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, checkRows(raw, r.want)
}

// sample is one request of a window: its latency and whether it was
// answered correctly.
type sample struct {
	ms float64
	ok bool
}

// window is what one measured segment yields. Failed requests stay in the
// samples, so they still count against the latency limit.
type window struct {
	samples []sample
	lateMS  []float64 // open loop: how late each request was sent
	tally   tally
	elapsed time.Duration
	nextOp  int // first op index no segment has used yet
}

func (w *window) record(d time.Duration, err error) {
	w.samples = append(w.samples, sample{ms: ms(d), ok: err == nil})
	w.tally.add(err)
}

func (w *window) merge(o *window) {
	w.samples = append(w.samples, o.samples...)
	w.lateMS = append(w.lateMS, o.lateMS...)
	w.tally.merge(o.tally)
}

// stats pools the window's samples: p50 and p95 of every request's
// latency, and correctly answered requests per second. (Splitting the
// window into spans and taking the median across them was tried and
// spread p95 wider: a third of the samples locates a tail worse than a
// rare disturbed span moves it.)
func (w *window) stats() (p50, p95, qps float64, asc []float64) {
	asc = make([]float64, len(w.samples))
	for i, s := range w.samples {
		asc[i] = s.ms
	}
	sort.Float64s(asc)
	return percentile(asc, 0.50), percentile(asc, 0.95), float64(w.tally.ok) / w.elapsed.Seconds(), asc
}

// withinLimit is the share of requests sent that were answered correctly
// within limitMS.
func (w *window) withinLimit(limitMS float64) float64 {
	n := 0
	for _, s := range w.samples {
		if s.ok && s.ms <= limitMS {
			n++
		}
	}
	return float64(n) / float64(max(len(w.samples), 1))
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one completed, until stop reports true. Ops are
// taken from the shared sequence starting at firstOp.
func (fx *fixture) closedLoop(clients, firstOp int, stop func() bool) *window {
	var next atomic.Int64
	next.Store(int64(firstOp))
	parts := make([]*window, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		parts[c] = &window{}
		wg.Add(1)
		go func(w *window) {
			defer wg.Done()
			for !stop() {
				i := int(next.Add(1)) - 1
				d, err := fx.do(fx.sched.at(i), i)
				w.record(d, err)
			}
		}(parts[c])
	}
	wg.Wait()
	out := &window{elapsed: time.Since(start), nextOp: int(next.Load())}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// forDuration is a closedLoop stop condition: true once d has passed.
func forDuration(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return !time.Now().Before(deadline) }
}

// openLoop sends the arrivals on schedule over conns connections,
// whatever the system's pace: connection c sends arrivals c, c+conns, …
// in order, sleeping until each is due. Latency runs from the due time,
// so a stall also charges the requests queued behind it, and lateMS says
// how late each send started.
func (fx *fixture) openLoop(arrivals []op, conns int) *window {
	reqs := make([]request, len(arrivals))
	for i, o := range arrivals {
		reqs[i] = fx.request(o, i)
	}
	parts := make([]*window, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		parts[c] = &window{}
		wg.Add(1)
		go func(c int, w *window) {
			defer wg.Done()
			for i := c; i < len(arrivals); i += conns {
				due := start.Add(time.Duration(arrivals[i].dueNS))
				preciseSleep(time.Until(due))
				w.lateMS = append(w.lateMS, ms(time.Since(due)))
				_, err := fx.send(reqs[i])
				w.record(time.Since(due), err)
			}
		}(c, parts[c])
	}
	wg.Wait()
	out := &window{elapsed: time.Since(start), nextOp: len(arrivals)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// ingest loads batches batches on one connection, closed loop, while one
// reader connection runs point queries against the same primary.
func (fx *fixture) ingest(batches int) (loadMS []float64, loadElapsed time.Duration, loads tally, reads *window) {
	var done atomic.Bool
	readsCh := make(chan *window, 1)
	go func() { readsCh <- fx.closedLoop(1, 0, done.Load) }()
	start := time.Now()
	for b := 0; b < batches; b++ {
		lat, err := fx.loadNext(1)
		loads.add(err)
		if err != nil {
			break
		}
		loadMS = append(loadMS, lat...)
	}
	loadElapsed = time.Since(start)
	done.Store(true)
	return loadMS, loadElapsed, loads, <-readsCh
}

// usage is the change over a span of work in the Go runtime's memory
// counters and the engine's plan-cache counters.
type usage struct {
	fx           *fixture
	mem          runtime.MemStats
	hits, misses uint64
}

func (fx *fixture) startUsage() *usage {
	u := &usage{fx: fx}
	u.hits, u.misses = fx.node.db.Engine.PlanCacheStats()
	runtime.ReadMemStats(&u.mem)
	return u
}

// metrics sets <prefix>go.* and <prefix>oql.plan_cache_hit_ratio for ops
// operations done since startUsage.
func (u *usage) metrics(prefix string, ops int, out metrics) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	out.set(prefix+"go.alloc_bytes_per_op", float64(after.TotalAlloc-u.mem.TotalAlloc)/float64(max(ops, 1)))
	out.set(prefix+"go.gc_cycles", float64(after.NumGC-u.mem.NumGC))
	out.set(prefix+"go.gc_pause_total_ms", float64(after.PauseTotalNs-u.mem.PauseTotalNs)/1e6)
	out.set(prefix+"go.heap_inuse_mb", float64(after.HeapInuse)/(1<<20))
	hits, misses := u.fx.node.db.Engine.PlanCacheStats()
	hits, misses = hits-u.hits, misses-u.misses
	out.set(prefix+"oql.plan_cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   int     `json:"seconds"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FirstErr  string  `json:"first_error,omitempty"`
	Schedule  string  `json:"schedule_hash"`
	Metrics   metrics `json:"metrics"` // the contract's metrics for this mode
	Extras    metrics `json:"extras"`  // ungated numbers beside them
	Samples   metrics `json:"samples"` // sample count behind each percentile
	Spans     []span  `json:"spans,omitempty"`
}

func newResult(s *spec, seed int64, seconds int, trace bool) *result {
	return &result{Workload: s.name, Seed: seed, Seconds: seconds, Trace: trace, Metrics: metrics{}, Extras: metrics{}, Samples: metrics{}}
}

func (r *result) count(t tally) {
	r.Attempted += t.sent
	r.Failed += t.failed
	if r.FirstErr == "" && t.firstErr != nil {
		r.FirstErr = t.firstErr.Error()
	}
}

// check records one state check as an attempted op.
func (r *result) check(what string, err error) {
	var t tally
	if err != nil {
		err = fmt.Errorf("%s: %w", what, err)
	}
	t.add(err)
	r.count(t)
}

// runMeasured is the untraced run: set-up (several times, for setup_s),
// the measured window, then the durability phase. Tracing is off
// throughout; every end-to-end metric comes from here.
func runMeasured(s *spec, seed int64, seconds int, scratch string) (*result, error) {
	res := newResult(s, seed, seconds, false)
	var fx *fixture
	var setups []float64
	var loads loadStats
	for i := 0; i < s.setups; i++ {
		if fx != nil {
			fx.close()
		}
		var err error
		if fx, err = setUp(s, seed, seconds, filepath.Join(scratch, fmt.Sprintf("primary-%d", i))); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, fx.setupS)
		loads.add(fx.loadMS, sumMS(fx.loadMS))
	}
	defer fx.close()
	res.Schedule = fx.scheduleHash()
	if err := fx.buildOracle(); err != nil {
		return nil, err
	}
	m := res.Metrics
	m.set("setup_s", median(setups))
	m.set("heap_bytes_per_doc_byte", fx.heapBytes/float64(fx.baseBytes))

	var live *replica
	if s.ingest {
		var err error
		if live, err = follow(fx.node.url, fx.cl.hc, false); err != nil {
			return nil, err
		}
		defer live.close()
	}

	usage := fx.startUsage()
	var q *window // the queries the latency metrics describe
	var p50, p95, qps float64
	var asc []float64
	switch {
	case s.open:
		open := time.Duration(seconds) * time.Second * 7 / 10
		q = fx.openLoop(fx.sched.arrivals(seed, openRate, int64(open)), s.clients)
		p50, p95, _, asc = q.stats()
		sat := fx.closedLoop(s.clients, q.nextOp, forDuration(time.Duration(seconds)*time.Second-open))
		res.count(sat.tally)
		var satP50 float64
		satP50, _, qps, _ = sat.stats()
		res.Extras.set("window.client.late_p95_ms", percentile(sorted(q.lateMS), 0.95))
		res.Extras.set("window.client.saturation_p50_ms", satP50)
	case s.ingest:
		loadMS, elapsed, failed, reads := fx.ingest(ingestBatchesPerSecond * seconds)
		res.count(failed)
		loads = loadStats{}
		loads.add(loadMS, ms(elapsed))
		q = reads
		p50, p95, qps, asc = q.stats()
	default:
		q = fx.closedLoop(s.clients, 0, forDuration(time.Duration(seconds)*time.Second))
		p50, p95, qps, asc = q.stats()
	}
	res.count(q.tally)
	usage.metrics("window.", q.tally.sent, res.Extras)

	m.set("query_p50_ms", p50)
	m.set("query_p95_ms", p95)
	m.set("query_qps", qps)
	m.set("slo_ok_frac", q.withinLimit(s.sloMS))
	res.Samples.set("query", float64(len(asc)))
	if supportsTail(len(asc), 0.99) {
		res.Extras.set("window.client.p99_ms", percentile(asc, 0.99))
	}
	res.Extras.set("window.client.sent", float64(q.tally.sent))
	res.Extras.set("window.client.ok", float64(q.tally.ok))
	res.Extras.set("window.client.failed", float64(q.tally.failed))

	m.set("load_p50_ms", median(loads.p50))
	m.set("load_p95_ms", median(loads.p95))
	m.set("load_docs_per_s", median(loads.docsPerS))
	res.Samples.set("load", float64(loads.batches))

	if err := fx.durability(res, live); err != nil {
		return nil, err
	}
	res.Extras.set("window.error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.Correct = res.Failed == 0
	return res, nil
}

// loadStats collects, per load phase (one set-up, or the ingest window),
// the p50 and p95 of its batch latencies and its articles per second; the
// metrics are the medians across phases.
type loadStats struct {
	p50, p95, docsPerS []float64
	batches            int
}

func (l *loadStats) add(batchMS []float64, elapsedMS float64) {
	asc := sorted(batchMS)
	l.p50 = append(l.p50, percentile(asc, 0.50))
	l.p95 = append(l.p95, percentile(asc, 0.95))
	l.docsPerS = append(l.docsPerS, float64(len(batchMS)*batchDocs)/(elapsedMS/1e3))
	l.batches += len(batchMS)
}

func sumMS(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// countArticles asks a database how many articles it holds.
func countArticles(db *sgmldb.Database) (int, error) {
	v, err := db.Query(`count(Articles)`)
	if err != nil {
		return 0, err
	}
	n, ok := v.(object.Int)
	if !ok {
		return 0, fmt.Errorf("count(Articles) = %s", v)
	}
	return int(n), nil
}

// sameState checks a copy of the primary against it: count(Articles) and
// the published epoch.
func sameState(db *sgmldb.Database, articles int, epoch uint64) error {
	at := db.Epoch()
	n, err := countArticles(db)
	if err != nil {
		return err
	}
	if n != articles || at != epoch {
		return fmt.Errorf("holds %d articles at epoch %d, primary holds %d at epoch %d", n, at, articles, epoch)
	}
	return nil
}

// durability ends a run with fixed work: an explicit Checkpoint(), then
// exactly tailRecords more batches, then a photograph of the data
// directory. It times reopening the photograph and bootstrapping a fresh
// follower (each durabilityRepeats times), measures the directory, and
// checks every copy's state against the primary.
func (fx *fixture) durability(res *result, live *replica) error {
	db := fx.node.db
	t0 := time.Now()
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	res.Extras.set("window.facade.checkpoint_ms", ms(time.Since(t0)))
	if _, err := fx.loadNext(tailRecords); err != nil {
		return err
	}
	st := db.Stats()
	seq, epoch, articles := st.WALSeq, st.Epoch, fx.nextDoc
	res.Extras.set("window.facade.recover_tail_records", float64(st.WALSeq-st.CheckpointSeq))
	res.check("primary state", sameState(db, articles, epoch))

	onDisk, err := dirBytes(fx.dir)
	if err != nil {
		return err
	}
	var raw int
	for _, d := range fx.docs[:fx.nextDoc] {
		raw += len(d)
	}
	res.Metrics.set("disk_bytes_per_doc_byte", float64(onDisk)/float64(raw))
	photo := fx.dir + "-photo"
	defer os.RemoveAll(photo)
	if err := copyDir(fx.dir, photo); err != nil {
		return err
	}

	var reopen, bootstrap []float64
	for i := 0; i < fx.spec.reopens; i++ {
		dir := fmt.Sprintf("%s-reopen-%d", fx.dir, i)
		if err := copyDir(photo, dir); err != nil {
			return err
		}
		t0 := time.Now()
		rdb, err := sgmldb.OpenDTD(corpus.ArticleDTD,
			sgmldb.WithAlgebra(true), sgmldb.WithDataDir(dir), sgmldb.WithCheckpointEvery(checkpointEvery))
		reopen = append(reopen, time.Since(t0).Seconds())
		if err == nil {
			err = sameState(rdb, articles, epoch)
			rdb.Close()
		}
		res.check("reopened photograph", err)
		os.RemoveAll(dir)
	}
	for i := 0; i < fx.spec.reopens; i++ {
		t0 := time.Now()
		r, err := follow(fx.node.url, fx.cl.hc, false)
		if err != nil {
			return err
		}
		err = r.waitFor(seq, time.Minute)
		bootstrap = append(bootstrap, time.Since(t0).Seconds())
		if err == nil {
			err = sameState(r.db, articles, epoch)
		}
		res.check("bootstrapped follower", err)
		r.close()
	}
	res.Metrics.set("recovery_s", median(reopen))
	res.Metrics.set("replica_bootstrap_s", median(bootstrap))

	if live != nil {
		err := live.waitFor(seq, time.Minute)
		if err == nil {
			err = sameState(live.db, articles, epoch)
		}
		res.check("live follower", err)
	}
	rep, err := db.Scrub()
	if err == nil && (rep.BadCheckpoints != 0 || rep.LastSeq != seq) {
		err = fmt.Errorf("scrub: %d bad checkpoints, last seq %d of %d", rep.BadCheckpoints, rep.LastSeq, seq)
	}
	res.check("scrub", err)
	return nil
}
