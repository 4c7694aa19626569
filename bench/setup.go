package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"sgmldb"
	"sgmldb/internal/corpus"
	"sgmldb/internal/object"
	"sgmldb/internal/oql"
	"sgmldb/internal/service"
)

// fixture is one set-up workload: the generated inputs, the node under
// test, and what the load generator needs to send and check each request.
type fixture struct {
	spec  *spec
	seed  int64
	sched *schedule
	// docs holds the base corpus followed by the articles later phases
	// load (ingest work, recovery tail, traced batches); nextDoc is the
	// first one not yet loaded.
	docs      []string
	nextDoc   int
	baseBytes int // raw SGML bytes of the base corpus
	dir       string
	node      *node
	cl        *client

	// Per distinct query string, indexed like sched.queries.
	bodies  [][]byte // ad-hoc /v1/query request bodies
	handles []string // /v1/execute/<handle> URLs
	want    []uint64 // oracle: hash of the canonical JSON rows
	// oracle is the separate in-memory database the expected answers come
	// from; the traced run also loads it as its full-size shadow database.
	oracle *sgmldb.Database
	bare   []bool // not a select: evaluated directly, no plan to stage

	loadMS    []float64 // per-batch latency of the set-up loads
	setupS    float64
	heapBytes float64 // live heap the loaded node added
}

// extraDocs is how many articles beyond the base corpus a run of the
// given length loads: the ingest work, the recovery tail and the traced
// batches.
func extraDocs(s *spec, seconds int) int {
	n := (tailRecords + traceBatches) * batchDocs
	if s.ingest {
		n += ingestBatchesPerSecond * seconds * batchDocs
	}
	return n
}

// rowsHash fingerprints a result the way both surfaces can compute it:
// FNV-1a over the JSON encoding of the rows. The service encodes rows
// with encoding/json, which sorts object keys, and the engine returns
// sets in canonical order, so equal values give equal bytes.
func rowsHash(rows []byte) uint64 {
	h := fnv.New64a()
	h.Write(rows)
	return h.Sum64()
}

// valueHash is rowsHash of an in-process result.
func valueHash(v object.Value) (uint64, error) {
	raw, err := json.Marshal(service.RowsJSON(v))
	if err != nil {
		return 0, err
	}
	return rowsHash(raw), nil
}

var errWrongAnswer = errors.New("answer differs from the oracle")

// checkValue checks an in-process answer against the oracle's hash.
func checkValue(v object.Value, err error, want uint64) error {
	if err != nil {
		return err
	}
	got, err := valueHash(v)
	if err == nil && got != want {
		err = errWrongAnswer
	}
	return err
}

// checkRows checks a /v1/query or /v1/execute response body against the
// oracle's hash.
func checkRows(raw []byte, want uint64) error {
	var resp struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	if rowsHash(resp.Rows) != want {
		return errWrongAnswer
	}
	return nil
}

// scheduleHash is the report's fingerprint of the request sequence.
func (fx *fixture) scheduleHash() string {
	return fmt.Sprintf("%016x", fx.sched.hash(fx.seed, 4096))
}

// primarySeq is the primary's last committed log sequence: a counter
// read, where Stats() would walk the whole instance.
func (fx *fixture) primarySeq() uint64 {
	seq, _ := fx.node.db.FeedSeq() // only a database without a log fails; every benchmark primary has one
	return seq
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// load sends one batch through the workload's load surface and returns
// its latency in milliseconds. Building the request body is the client's
// work and is not timed.
func (fx *fixture) load(batch []string) (float64, error) {
	if fx.spec.inproc {
		t0 := time.Now()
		_, err := fx.node.db.LoadDocuments(batch)
		return ms(time.Since(t0)), err
	}
	body := loadBody(batch)
	t0 := time.Now()
	_, err := fx.cl.post(fx.node.url+"/v1/load", body)
	return ms(time.Since(t0)), err
}

// loadNext loads the next n batches of not-yet-loaded articles.
func (fx *fixture) loadNext(n int) ([]float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := fx.load(fx.docs[fx.nextDoc : fx.nextDoc+batchDocs])
		if err != nil {
			return lat, fmt.Errorf("load batch at article %d: %w", fx.nextDoc, err)
		}
		fx.nextDoc += batchDocs
		lat = append(lat, d)
	}
	return lat, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setUp generates the corpus and brings up a loaded, warmed node in dir.
// setupS covers generation, open, load, root naming, handle preparation
// and one warming pass over the distinct query strings; the oracle is the
// benchmark's own work and is built separately.
func setUp(s *spec, seed int64, seconds int, dir string) (fx *fixture, err error) {
	fx = &fixture{spec: s, seed: seed, sched: newSchedule(s, seed), dir: dir, cl: newClient(max(s.clients, 2))}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	t0 := time.Now()
	gen := corpus.NewGenerator(corpus.Params{Seed: seed})
	fx.docs = make([]string, s.docs+extraDocs(s, seconds))
	for i := range fx.docs {
		fx.docs[i] = gen.Article(i)
		if i < s.docs {
			fx.baseBytes += len(fx.docs[i])
		}
	}
	generated := time.Since(t0)
	before := heapAlloc() // the corpus strings are in the baseline

	t0 = time.Now()
	if fx.node, err = openPrimary(dir); err != nil {
		return fx, err
	}
	if fx.loadMS, err = fx.loadNext(s.docs / batchDocs); err != nil {
		return fx, err
	}
	loaded := fx.node.db.Loader.Documents()
	for i := 0; i < s.roots; i++ {
		if err = fx.node.db.Name(fmt.Sprintf("d%d", i), loaded[i]); err != nil {
			return fx, fmt.Errorf("name d%d: %w", i, err)
		}
	}
	if err = fx.prepareAndWarm(); err != nil {
		return fx, err
	}
	fx.setupS = (generated + time.Since(t0)).Seconds()
	fx.heapBytes = heapAlloc() - before
	return fx, nil
}

// prepareAndWarm builds the request bodies, prepares the handles the mix
// executes, and sends every distinct string once so the plan cache holds
// the working set before timing starts.
func (fx *fixture) prepareAndWarm() error {
	qs := fx.sched.queries
	fx.bodies = make([][]byte, len(qs))
	fx.handles = make([]string, len(qs))
	needHandle := map[int]bool{}
	for _, o := range fx.sched.cycle {
		if o.prepared {
			needHandle[o.query] = true
		}
	}
	for i, q := range qs {
		fx.bodies[i] = queryBody(q.text)
		if fx.spec.inproc {
			if _, err := fx.node.db.QueryContext(context.Background(), q.text); err != nil {
				return fmt.Errorf("warm %q: %w", q.text, err)
			}
			continue
		}
		if _, err := fx.cl.post(fx.node.url+"/v1/query", fx.bodies[i]); err != nil {
			return fmt.Errorf("warm %q: %w", q.text, err)
		}
		if needHandle[i] {
			raw, err := fx.cl.post(fx.node.url+"/v1/prepare", fx.bodies[i])
			if err != nil {
				return fmt.Errorf("prepare %q: %w", q.text, err)
			}
			var resp struct {
				Handle string `json:"handle"`
			}
			if err := json.Unmarshal(raw, &resp); err != nil || resp.Handle == "" {
				return fmt.Errorf("prepare %q: no handle in %.100s", q.text, raw)
			}
			fx.handles[i] = fx.node.url + "/v1/execute/" + resp.Handle
			if _, err := fx.cl.post(fx.handles[i], nil); err != nil {
				return fmt.Errorf("warm handle %q: %w", q.text, err)
			}
		}
	}
	return nil
}

// buildOracle computes the expected answer of every distinct query on a
// separate in-memory database holding the same base corpus under the same
// root names, so the node under test never sees an oracle query. Every
// string runs under both evaluators, which must agree.
func (fx *fixture) buildOracle() error {
	odb, err := sgmldb.OpenDTD(corpus.ArticleDTD)
	if err != nil {
		return err
	}
	oids, err := odb.LoadDocuments(fx.docs[:fx.spec.docs])
	if err != nil {
		return fmt.Errorf("oracle load: %w", err)
	}
	for i := 0; i < fx.spec.roots; i++ {
		if err := odb.Name(fmt.Sprintf("d%d", i), oids[i]); err != nil {
			return fmt.Errorf("oracle name d%d: %w", i, err)
		}
	}
	fx.oracle = odb
	fx.want = make([]uint64, len(fx.sched.queries))
	fx.bare = make([]bool, len(fx.sched.queries))
	for i, q := range fx.sched.queries {
		var got [2]uint64
		for j, algebra := range []bool{false, true} {
			odb.UseAlgebra(algebra)
			v, err := odb.Query(q.text)
			if err != nil {
				return fmt.Errorf("oracle %q (algebra=%v): %w", q.text, algebra, err)
			}
			if got[j], err = valueHash(v); err != nil {
				return err
			}
		}
		if got[0] != got[1] {
			return fmt.Errorf("oracle: evaluators disagree on %q", q.text)
		}
		fx.want[i] = got[0]
		ast, err := oql.Parse(q.text)
		if err != nil {
			return err
		}
		_, isSelect := ast.(oql.SelectExpr)
		fx.bare[i] = !isSelect
	}
	return nil
}

// close stops the node and removes its data directory.
func (fx *fixture) close() {
	if fx.node != nil {
		_ = fx.node.close()
		fx.node = nil
	}
	fx.cl.close()
	_ = os.RemoveAll(fx.dir)
}
