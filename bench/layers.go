package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sgmldb"
	"sgmldb/internal/algebra"
	"sgmldb/internal/calculus"
	"sgmldb/internal/corpus"
	"sgmldb/internal/dtdmap"
	"sgmldb/internal/oql"
	"sgmldb/internal/service"
	"sgmldb/internal/sgml"
	"sgmldb/internal/store"
	"sgmldb/internal/text"
	"sgmldb/internal/wal"
)

// traceBatches is the number of load batches the traced run replays.
const traceBatches = 32

// applyRecords is the number of batches loaded after the traced run's
// checkpoint and then applied, record by record, to a shadow follower.
const applyRecords = 8

// naiveEvery: the naive evaluator runs on every naiveEvery-th replayed
// query, for calculus.eval_us and the paper's naive/algebra ratio.
const naiveEvery = 10

// lagPollInterval is how often the traced load replay samples the live
// follower's lag.
const lagPollInterval = 10 * time.Millisecond

// probeWords are looked up in the text index for text.lookup_us: a rare,
// a middling and a common word of the corpus vocabulary.
var probeWords = []string{word(900), word(100), word(1)}

// timeUS runs f and returns how long it took, in microseconds.
func timeUS(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return float64(time.Since(t0)) / 1e3, err
}

// tracedRun holds the state of one traced run.
type tracedRun struct {
	fx       *fixture
	tr       *tracer
	res      *result
	follower *replica
	prepared []*sgmldb.PreparedQuery // per distinct query string
	missSeq  int                     // source of never-seen literals
	loose    map[string][]float64
}

// sample records one measurement that is not a span, in the metric's own
// unit; the metric is the median of its samples. Like spans, samples are
// dropped while the tracer is off.
func (t *tracedRun) sample(name string, v float64) {
	if !t.tr.off {
		t.loose[name] = append(t.loose[name], v)
	}
}

// runTraced is the traced run: the workload is set up once, the first ops
// of its own schedule are replayed by one client with a span around each
// call into a layer, load batches are replayed stage by stage on shadow
// copies, and the durability layers are probed at the workload's corpus
// size. Every per-layer metric comes from here; no end-to-end metric does.
func runTraced(s *spec, seed int64, seconds int, scratch string) (*result, error) {
	res := newResult(s, seed, seconds, true)
	fx, err := setUp(s, seed, seconds, filepath.Join(scratch, "primary"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer fx.close()
	res.Schedule = fx.scheduleHash()
	if err := fx.buildOracle(); err != nil {
		return nil, err
	}
	t := &tracedRun{fx: fx, tr: newTracer(), res: res, loose: map[string][]float64{}}
	if err := t.growToFullSize(seconds); err != nil {
		return nil, err
	}
	if t.follower, err = follow(fx.node.url, fx.cl.hc, true); err != nil {
		return nil, err
	}
	defer t.follower.close()
	if err := t.follower.waitFor(fx.primarySeq(), time.Minute); err != nil {
		return nil, err
	}

	ops := s.traceOps * seconds
	usage := fx.startUsage()
	if err := t.replayQueries(ops); err != nil {
		return nil, err
	}
	usage.metrics("", ops, res.Metrics)
	if err := t.replayLoads(scratch); err != nil {
		return nil, err
	}
	if err := t.probeDurability(); err != nil {
		return nil, err
	}
	t.assemble()
	res.Spans = t.tr.spans
	res.Correct = res.Failed == 0
	return res, nil
}

// growToFullSize brings an ingest workload's primary, and the oracle
// database that doubles as the full-size in-memory shadow, to the corpus
// size its measured run ends with, in large untimed batches: the layers
// are probed at the size where the O(corpus) terms are largest.
func (t *tracedRun) growToFullSize(seconds int) error {
	fx := t.fx
	if !fx.spec.ingest {
		return nil
	}
	end := fx.spec.docs + ingestBatchesPerSecond*seconds*batchDocs
	for fx.nextDoc < end {
		batch := fx.docs[fx.nextDoc:min(fx.nextDoc+100, end)]
		if _, err := fx.node.db.LoadDocuments(batch); err != nil {
			return fmt.Errorf("grow primary: %w", err)
		}
		if _, err := fx.oracle.LoadDocuments(batch); err != nil {
			return fmt.Errorf("grow shadow database: %w", err)
		}
		fx.nextDoc += len(batch)
	}
	return nil
}

// missText is a never-seen variant of query q, distinct on every call.
func (t *tracedRun) missText(q int) string {
	t.missSeq++
	return fmt.Sprintf(t.fx.sched.queries[q].miss, 800000+t.missSeq, 800000+t.missSeq)
}

// replayQueries replays the first n ops of the workload's schedule with
// one client, twice: first with the tracer off, then recording. The two
// passes do the same work in the same order, so the difference between
// their whole-call latencies is what recording spans costs.
func (t *tracedRun) replayQueries(n int) error {
	db := t.fx.node.db
	t.prepared = make([]*sgmldb.PreparedQuery, len(t.fx.sched.queries))
	for i, q := range t.fx.sched.queries {
		us, err := timeUS(func() (err error) { t.prepared[i], err = db.Prepare(q.text); return err })
		if err != nil {
			return fmt.Errorf("prepare %q: %w", q.text, err)
		}
		t.sample("oql.prepare_us", us)
	}
	t.tr.off = true
	untraced := t.replayPass(n)
	t.tr.off = false
	traced := t.replayPass(n)
	t.res.Metrics.set("trace.overhead_frac", median(traced)/median(untraced)-1)
	return nil
}

// replayPass sends each of the first n ops staged (one span per
// compilation and evaluation stage) and, beside that, as whole calls: in
// process, prepared, over HTTP to the primary and to the follower. It
// returns the in-process whole-call latencies in microseconds, timed the
// same way whether or not the tracer records.
func (t *tracedRun) replayPass(n int) (facadeUS []float64) {
	fx, db, tr := t.fx, t.fx.node.db, t.tr
	var sent tally
	selects := 0
	for i := 0; i < n; i++ {
		o := fx.sched.at(i)
		src := func() string {
			if o.miss {
				return t.missText(o.query)
			}
			return fx.sched.queries[o.query].text
		}
		want := fx.want[o.query]
		if !fx.bare[o.query] {
			t.res.check("staged query", t.staged(src(), want, i, selects%naiveEvery == 0))
			selects++
		}

		q := src()
		id := tr.begin("facade.query", 0, i)
		t0 := time.Now()
		v, err := db.QueryContext(context.Background(), q)
		facadeUS = append(facadeUS, float64(time.Since(t0))/1e3)
		tr.end(id)
		t.res.check("facade.query", checkValue(v, err, want))

		id = tr.begin("facade.prepared", 0, i)
		v, err = t.prepared[o.query].Run(context.Background())
		tr.end(id)
		t.res.check("facade.prepared", checkValue(v, err, want))

		for _, target := range []struct{ name, url string }{
			{"service.http", fx.node.url},
			{"service.follower_http", t.follower.node.url},
		} {
			body := queryBody(src())
			id = tr.begin(target.name, 0, i)
			raw, err := fx.cl.post(target.url+"/v1/query", body)
			tr.end(id)
			if err == nil {
				t.sample("service.response_bytes", float64(len(raw)))
				err = checkRows(raw, want)
			}
			if target.name == "service.http" {
				sent.add(err)
			}
			t.res.check(target.name, err)
		}
	}
	if !tr.off {
		t.res.Metrics.set("client.sent", float64(sent.sent))
		t.res.Metrics.set("client.ok", float64(sent.ok))
		t.res.Metrics.set("client.failed", float64(sent.failed))
	}
	return facadeUS
}

// staged runs one select query stage by stage through the layers' public
// functions, a child span around each: what QueryContext does on a
// plan-cache miss, plus the service's encoding. On every naiveEvery-th
// select the naive evaluator then runs the same lowered query.
func (t *tracedRun) staged(src string, want uint64, request int, naive bool) error {
	db, tr := t.fx.node.db, t.tr
	st := db.Engine.State()
	env := db.Engine.Env.WithInstance(st.Snap.Inst)
	var (
		q     *calculus.Query
		rows  *calculus.Result
		raw   []byte
		runID int
	)
	req := tr.begin("request", 0, request)
	err := func() error {
		id := tr.begin("oql.parse", req, request)
		ast, err := oql.Parse(src)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("oql.typecheck", req, request)
		err = oql.Typecheck(st.Snap.Inst.Schema(), ast)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("oql.lower", req, request)
		q, err = oql.Lower(ast, st.Snap.Inst.Schema().Roots())
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("algebra.translate", req, request)
		plan, err := algebra.Translate(env, q, algebra.Options{Index: st.Index})
		tr.end(id)
		if err != nil {
			return err
		}
		runID = tr.begin("algebra.run", req, request)
		ctx := algebra.NewCtx(env.WithContext(context.Background()))
		ctx.Index = st.Index
		ctx.Workers = runtime.GOMAXPROCS(0)
		rows, err = plan.Run(ctx)
		tr.end(runID)
		if err != nil {
			return err
		}
		id = tr.begin("service.encode", req, request)
		raw, err = json.Marshal(service.RowsJSON(rows.ToSet()))
		tr.end(id)
		return err
	}()
	tr.end(req)
	if err != nil {
		return err
	}
	if rowsHash(raw) != want {
		return fmt.Errorf("%w: staged %q", errWrongAnswer, src)
	}
	t.sample("algebra.result_rows", float64(rows.Len()))
	if naive {
		id := tr.begin("calculus.eval", 0, request)
		nrows, err := env.Eval(q)
		tr.end(id)
		if err != nil {
			return err
		}
		if nrows.Len() != rows.Len() {
			return fmt.Errorf("%w: naive evaluator, %q", errWrongAnswer, src)
		}
		if !tr.off {
			t.sample("calculus.naive_over_algebra", tr.us(id)/tr.us(runID))
		}
	}
	return nil
}

// shadow is the benchmark's own copy of the write path's state — a
// loader, a text index and a log — so that each stage of a load can be
// timed through its public function without disturbing the live database.
type shadow struct {
	dtd    *sgml.DTD
	loader *dtdmap.Loader
	index  *text.Index
}

func newShadow() (*shadow, error) {
	dtd, err := sgml.ParseDTD(corpus.ArticleDTD)
	if err != nil {
		return nil, err
	}
	m, err := dtdmap.MapDTD(dtd)
	if err != nil {
		return nil, err
	}
	return &shadow{dtd: dtd, loader: dtdmap.NewLoader(m), index: text.NewIndex()}, nil
}

func (sh *shadow) parse(srcs []string) ([]*sgml.Document, error) {
	docs := make([]*sgml.Document, len(srcs))
	for i, src := range srcs {
		doc, err := sgml.ParseDocument(sh.dtd, src)
		if err != nil {
			return nil, err
		}
		docs[i] = doc
	}
	return docs, nil
}

// fill loads srcs into the shadow untimed, in batches of 64.
func (sh *shadow) fill(srcs []string) error {
	for len(srcs) > 0 {
		n := min(64, len(srcs))
		docs, err := sh.parse(srcs[:n])
		if err != nil {
			return err
		}
		oids, err := sh.loader.LoadAll(docs)
		if err != nil {
			return err
		}
		for _, oid := range oids {
			sh.index.Add(text.DocID(oid), dtdmap.TextOf(sh.loader.Instance, oid))
		}
		srcs = srcs[n:]
	}
	return nil
}

// replayLoads replays traceBatches load batches. Each batch runs stage by
// stage on a full-size shadow (spans under one request), on an empty
// shadow loader, through LoadDocuments on an in-memory database at full
// size and at size zero (the latter also over HTTP), and for real on the
// live primary while the live follower's lag is sampled.
func (t *tracedRun) replayLoads(scratch string) error {
	var lt loadTargets
	var err error
	if lt.full, err = newShadow(); err != nil {
		return err
	}
	if err := lt.full.fill(t.fx.docs[:t.fx.nextDoc]); err != nil {
		return fmt.Errorf("fill shadow: %w", err)
	}
	if lt.empty, err = newShadow(); err != nil {
		return err
	}
	// Two empty in-memory databases loaded in lockstep, one in process and
	// one over HTTP: the same batch at the same size, so the difference is
	// the service's own cost of a load.
	if lt.memEmpty, err = sgmldb.OpenDTD(corpus.ArticleDTD); err != nil {
		return err
	}
	httpEmptyDB, err := sgmldb.OpenDTD(corpus.ArticleDTD)
	if err != nil {
		return err
	}
	if lt.httpEmpty, err = serve(httpEmptyDB); err != nil {
		return err
	}
	defer lt.httpEmpty.close()
	logDir := filepath.Join(scratch, "shadow-log")
	if lt.wlog, _, _, err = wal.Open(logDir); err != nil {
		return err
	}
	defer lt.wlog.Close()

	stopLag := t.pollLag()
	for b := 0; b < traceBatches && err == nil; b++ {
		err = t.replayBatch(&lt, b)
	}
	stopLag()
	if err != nil {
		return err
	}
	return t.probeCodecs(lt.full, lt.wlog, logDir)
}

// loadTargets are the copies of the write path a replayed batch runs on.
type loadTargets struct {
	full, empty *shadow          // stage by stage: at the workload's size, and empty
	memEmpty    *sgmldb.Database // LoadDocuments at size zero (size full: the oracle database)
	httpEmpty   *node            // the same over /v1/load
	wlog        *wal.Log         // scratch log for wal.append
}

// replayBatch replays traced batch number b on every target.
func (t *tracedRun) replayBatch(lt *loadTargets, b int) error {
	fx, tr := t.fx, t.tr
	full, empty, wlog := lt.full, lt.empty, lt.wlog
	var err error
	batch := fx.docs[fx.nextDoc : fx.nextDoc+batchDocs]
	request := 1_000_000 + b
	req := tr.begin("load", 0, request)
	docs := make([]*sgml.Document, len(batch))
	for i, src := range batch {
		id := tr.begin("sgml.parse", req, request)
		docs[i], err = sgml.ParseDocument(full.dtd, src)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	id := tr.begin("dtdmap.load", req, request)
	oids, err := full.loader.LoadAll(docs)
	tr.end(id)
	if err != nil {
		return err
	}
	texts := make([]string, len(oids))
	for i, oid := range oids {
		id = tr.begin("dtdmap.textof", req, request)
		texts[i] = dtdmap.TextOf(full.loader.Instance, oid)
		tr.end(id)
	}
	id = tr.begin("text.clone", req, request)
	ix := full.index.Clone()
	tr.end(id)
	for i, oid := range oids {
		id = tr.begin("text.add", req, request)
		ix.Add(text.DocID(oid), texts[i])
		tr.end(id)
	}
	full.index = ix
	rec := wal.Record{Kind: wal.KindLoad, Docs: batch}
	id = tr.begin("wal.append", req, request)
	err = wlog.Append(rec)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("store.snapshot", req, request)
	_ = full.loader.Instance.Snapshot()
	tr.end(id)
	tr.end(req)

	// Codec cost of the same record, and its size on the log.
	rec.Seq, rec.Term = wlog.Seq(), wlog.Term()
	var frame []byte
	us, _ := timeUS(func() error { frame = wal.EncodeFrame(rec); return nil })
	t.sample("wal.encode_us_per_record", us)
	us, err = timeUS(func() error { _, _, err := wal.DecodeFrame(frame); return err })
	t.res.check("wal.DecodeFrame", err)
	t.sample("wal.decode_us_per_record", us)
	t.sample("wal.bytes_per_doc_byte", float64(len(frame))/float64(totalLen(batch)))

	// The same batch on an empty shadow loader: LoadAll without the
	// O(corpus) term.
	edocs, err := empty.parse(batch)
	if err != nil {
		return err
	}
	id = tr.begin("dtdmap.load_empty", 0, request)
	_, err = empty.loader.LoadAll(edocs)
	tr.end(id)
	if err != nil {
		return err
	}

	// LoadDocuments, in memory, at full size and at size zero.
	id = tr.begin("facade.load_mem_full", 0, request)
	_, err = fx.oracle.LoadDocuments(batch)
	tr.end(id)
	t.res.check("LoadDocuments (in memory, full)", err)
	id = tr.begin("facade.load_mem_empty", 0, request)
	_, err = lt.memEmpty.LoadDocuments(batch)
	tr.end(id)
	t.res.check("LoadDocuments (in memory, empty)", err)
	body := loadBody(batch)
	id = tr.begin("service.load_mem_empty", 0, request)
	_, err = fx.cl.post(lt.httpEmpty.url+"/v1/load", body)
	tr.end(id)
	t.res.check("/v1/load (in memory, empty)", err)

	// The real load on the durable primary, with the follower tailing.
	id = tr.begin("facade.load", 0, request)
	_, err = fx.node.db.LoadDocuments(batch)
	tr.end(id)
	t.res.check("load on the primary", err)
	fx.nextDoc += batchDocs
	// Let the follower catch up before the next batch's stages are
	// timed: it re-parses and reloads the batch on the same two CPUs.
	t.res.check("live follower", t.follower.waitFor(fx.primarySeq(), time.Minute))
	return nil
}

// probeCodecs prices the snapshot and checkpoint codecs on the full-size
// shadow, and reopening the scratch log directory that holds them.
func (t *tracedRun) probeCodecs(full *shadow, wlog *wal.Log, logDir string) error {
	fx := t.fx

	inst := full.loader.Instance
	raw := totalLen(fx.docs[:fx.nextDoc])
	stats := inst.Stats()
	t.res.Metrics.set("store.objects_per_doc", float64(stats.Objects)/float64(fx.nextDoc))
	t.res.Metrics.set("store.value_bytes_per_doc_byte", float64(stats.ValueBytes)/float64(raw))
	var buf bytes.Buffer
	us, err := timeUS(func() error { return store.Save(&buf, inst) })
	t.res.check("store.Save", err)
	t.res.Metrics.set("store.save_ms", us/1e3)
	t.res.Metrics.set("store.save_bytes_per_doc_byte", float64(buf.Len())/float64(raw))
	us, err = timeUS(func() error { _, err := store.Load(&buf); return err })
	t.res.check("store.Load", err)
	t.res.Metrics.set("store.load_ms", us/1e3)

	loaded := full.loader.Documents()
	ck := &wal.Checkpoint{Seq: wlog.Seq(), Epoch: inst.Epoch(), Term: wlog.Term(), DTD: corpus.ArticleDTD,
		Docs: make([]uint64, len(loaded)), Inst: inst, Index: full.index}
	for i, o := range loaded {
		ck.Docs[i] = uint64(o)
	}
	us, err = timeUS(func() error { return wal.WriteCheckpoint(logDir, ck) })
	t.res.check("wal.WriteCheckpoint", err)
	t.res.Metrics.set("wal.checkpoint_write_ms", us/1e3)
	path, _, err := wal.NewestCheckpointPath(logDir)
	if err != nil {
		return err
	}
	file, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t.res.Metrics.set("wal.checkpoint_bytes_per_doc_byte", float64(len(file))/float64(raw))
	us, err = timeUS(func() error { _, err := wal.DecodeCheckpoint(bytes.NewReader(file)); return err })
	t.res.check("wal.DecodeCheckpoint", err)
	t.res.Metrics.set("wal.checkpoint_decode_ms", us/1e3)
	if err := wlog.Close(); err != nil {
		return err
	}
	us, err = timeUS(func() error {
		l, _, _, err := wal.Open(logDir)
		if err == nil {
			err = l.Close()
		}
		return err
	})
	t.res.check("wal.Open", err)
	t.res.Metrics.set("wal.open_ms", us/1e3)
	return nil
}

func totalLen(srcs []string) int {
	n := 0
	for _, s := range srcs {
		n += len(s)
	}
	return n
}

// pollLag samples the live follower's lag, in records, until the returned
// stop function is called, which also records the lag metrics.
func (t *tracedRun) pollLag() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var lag []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(lagPollInterval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				primary := t.fx.primarySeq()
				lag = append(lag, float64(primary)-float64(min(t.follower.db.AppliedSeq(), primary)))
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
		t.res.Metrics.set("service.follower_lag_records_p50", median(lag))
		t.res.Metrics.set("service.follower_lag_records_max", percentile(sorted(lag), 1))
		t.res.Samples.set("service.follower_lag_records", float64(len(lag)))
	}
}

// probeDurability checkpoints the primary, fetches the checkpoint over
// HTTP and installs it in a shadow follower, loads applyRecords further
// batches, times the feed that ships them (in process and over HTTP),
// applies them to the shadow follower one by one, and scrubs.
func (t *tracedRun) probeDurability() error {
	fx, db := t.fx, t.fx.node.db
	us, err := timeUS(db.Checkpoint)
	t.res.check("Checkpoint", err)
	t.res.Metrics.set("facade.checkpoint_ms", us/1e3)
	var ckRaw []byte
	for i := 0; i < 3; i++ {
		us, err = timeUS(func() (err error) { ckRaw, err = fx.cl.get(fx.node.url + "/v1/checkpoint"); return err })
		t.res.check("GET /v1/checkpoint", err)
		t.sample("service.checkpoint_fetch_ms", us/1e3)
	}
	ck, err := wal.DecodeCheckpoint(bytes.NewReader(ckRaw))
	if err != nil {
		return fmt.Errorf("decode fetched checkpoint: %w", err)
	}
	fdb, err := sgmldb.OpenFollower(corpus.ArticleDTD)
	if err != nil {
		return err
	}
	us, err = timeUS(func() error { return fdb.ApplyCheckpoint(ck) })
	t.res.check("ApplyCheckpoint", err)
	t.res.Metrics.set("facade.apply_checkpoint_ms", us/1e3)

	// The tail: fewer records than the checkpoint policy's interval, so
	// the log still holds all of them when the feed is read.
	if _, err := fx.loadNext(applyRecords); err != nil {
		return err
	}
	var frames []byte
	for i := 0; i < 20; i++ {
		us, err = timeUS(func() (err error) { frames, _, err = db.FeedFrames(ck.Seq, 0, 1<<24); return err })
		t.res.check("FeedFrames", err)
		t.sample("wal.feed_frames_us", us)
		var body []byte
		us, err = timeUS(func() (err error) {
			body, err = fx.cl.get(fmt.Sprintf("%s/v1/feed?after=%d&wait_ms=0&max_bytes=%d", fx.node.url, ck.Seq, 1<<24))
			return err
		})
		t.res.check("GET /v1/feed", err)
		t.sample("service.feed_poll_ms", us/1e3)
		t.sample("service.feed_bytes_per_record", float64(len(body))/applyRecords)
	}
	for len(frames) > 0 {
		rec, n, err := wal.DecodeFrame(frames)
		if err != nil {
			return fmt.Errorf("decode fed frame: %w", err)
		}
		frames = frames[n:]
		us, err = timeUS(func() error { return fdb.ApplyRecord(rec) })
		t.res.check("ApplyRecord", err)
		t.sample("facade.apply_record_us", us)
	}
	us, err = timeUS(func() error { _, err := db.Scrub(); return err })
	t.res.check("Scrub", err)
	t.res.Metrics.set("facade.scrub_ms", us/1e3)

	st := db.Stats()
	t.res.Metrics.set("facade.recover_tail_records", float64(st.WALSeq-st.CheckpointSeq))
	t.res.check("shadow follower state", sameState(fdb, fx.nextDoc, st.Epoch))
	t.res.check("live follower", t.follower.waitFor(st.WALSeq, time.Minute))
	t.res.check("live follower state", sameState(t.follower.db, fx.nextDoc, st.Epoch))
	t.res.Metrics.set("service.requests_shed", float64(st.QueriesShed))

	ix := db.Engine.State().Index
	t.res.Metrics.set("text.indexed_docs", float64(ix.Size()))
	t.res.Metrics.set("text.vocabulary", float64(ix.VocabularySize()))
	for _, w := range probeWords {
		expr, err := text.Word(w)
		if err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			us, _ := timeUS(func() error { _ = ix.Eval(expr); return nil })
			t.sample("text.lookup_us", us)
		}
	}
	return nil
}

// assemble turns spans and loose samples into the per-layer metrics: each
// timing is the median over its samples.
func (t *tracedRun) assemble() {
	m, spans := t.res.Metrics, t.tr.spans
	self := selfTimes(spans)
	dur := func(name string) float64 { return median(durationsUS(spans, name)) }

	// Query path.
	for metric, name := range map[string]string{
		"oql.parse_us": "oql.parse", "oql.typecheck_us": "oql.typecheck", "oql.lower_us": "oql.lower",
		"algebra.translate_us": "algebra.translate", "algebra.run_us": "algebra.run",
		"service.encode_us": "service.encode", "calculus.eval_us": "calculus.eval",
		"facade.query_us": "facade.query", "facade.prepared_us": "facade.prepared",
	} {
		m.set(metric, dur(name))
	}
	m.set("service.http_tax_us", pairedMedian(spans, "service.http", "facade.query"))
	m.set("service.follower_tax_us", pairedMedian(spans, "service.follower_http", "service.http"))
	m.set("client.p50_ms", dur("service.http")/1e3)
	// The stages against the call they reconstruct: how much of each
	// request span its child spans cover, and the evaluation stage's share
	// of the whole in-process call on the same request.
	var stageSum, whole float64
	var runShare []float64
	facade := byRequest(spans, "facade.query")
	for _, s := range spans {
		switch s.Name {
		case "request":
			whole += float64(s.End - s.Start)
			stageSum += float64(s.End-s.Start) - float64(self[s.ID])
		case "algebra.run":
			runShare = append(runShare, float64(self[s.ID])/1e3/facade[s.Request])
		}
	}
	m.set("trace.stage_sum_over_call", stageSum/max(whole, 1))
	m.set("algebra.run_share_of_query", median(runShare))

	// Write path.
	m.set("sgml.parse_us_per_doc", dur("sgml.parse"))
	m.set("sgml.parse_mb_per_s", float64(t.fx.baseBytes)/float64(t.fx.spec.docs)/max(dur("sgml.parse"), 1e-9))
	m.set("dtdmap.load_us_per_batch_full", dur("dtdmap.load"))
	m.set("dtdmap.load_us_per_batch_empty", dur("dtdmap.load_empty"))
	m.set("dtdmap.textof_us_per_doc", dur("dtdmap.textof"))
	m.set("text.clone_us", dur("text.clone"))
	m.set("text.add_us_per_doc", dur("text.add"))
	m.set("wal.append_us", dur("wal.append"))
	m.set("store.snapshot_us", dur("store.snapshot"))
	m.set("facade.load_ms_per_batch_full", dur("facade.load_mem_full")/1e3)
	m.set("facade.load_ms_per_batch_empty", dur("facade.load_mem_empty")/1e3)
	stages := batchDocs*(dur("sgml.parse")+dur("dtdmap.textof")+dur("text.add")) +
		dur("dtdmap.load") + dur("text.clone") + dur("store.snapshot")
	m.set("facade.load_residual_us", dur("facade.load_mem_full")-stages)
	m.set("facade.load_durable_ms", dur("facade.load")/1e3)
	m.set("service.load_tax_us", pairedMedian(spans, "service.load_mem_empty", "facade.load_mem_empty"))

	for name, xs := range t.loose {
		m.set(name, median(xs))
	}
}
