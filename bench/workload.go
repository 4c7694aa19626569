package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// batchDocs is the size of every load batch: set-up loads, the ingest
// writer and the recovery tail all load four articles per call, so load
// latencies compare across workloads and corpus sizes.
const batchDocs = 4

// tailRecords is the number of batches loaded after the explicit
// Checkpoint() that ends a run: the log tail that recovery replays and a
// bootstrapping follower fetches. It must stay below checkpointEvery.
const tailRecords = 32

// openRate is point_http's fixed open-loop arrival rate, in requests per
// second over both connections. It was verified at this commit to be
// below 40 % of the workload's closed-loop query_qps (see README.md) and
// is frozen: changing it changes the workload.
const openRate = 1500

// ingestBatchesPerSecond turns --seconds into ingest_mixed's fixed work:
// the contract's 10 s run loads 300 batches (1,200 articles).
const ingestBatchesPerSecond = 30

// cycleLen is the length of the shuffled op cycle a closed-loop schedule
// repeats; class shares are exact within one cycle.
const cycleLen = 1000

// spec is one workload's definition. Names are fixed; later issues cite
// them.
type spec struct {
	name string
	why  string
	// docs is the corpus loaded during set-up; roots of its first
	// articles are named d0..d<roots-1>.
	docs, roots int
	// inproc: queries call Database.QueryContext, not the HTTP service.
	inproc bool
	// clients is the number of query clients (goroutines; connections for
	// an HTTP workload).
	clients int
	// open: Poisson arrivals at openRate instead of a closed loop, then a
	// closed-loop saturation segment.
	open bool
	// ingest: a writer loads fixed work beside one reader, with a live
	// follower tailing.
	ingest bool
	// setups is how many times a measured run sets the workload up:
	// setup_s and the set-up load metrics are medians over them, and the
	// last node is the one measured. reopens is how many times recovery
	// and follower bootstrap are timed, for the medians recovery_s and
	// replica_bootstrap_s. Smaller corpora repeat more: each workload
	// spends two to seven seconds on either.
	setups, reopens int
	// sloMS is the latency limit of slo_ok_frac.
	sloMS float64
	// traceOps is the number of query ops the traced run replays per
	// second of --seconds.
	traceOps int
	classes  func(rng *rand.Rand, s *spec) []classDef
}

// queryDef is one distinct query string. miss, when set, is a format
// taking one number twice that yields a never-seen string with the same
// answer (the literal only adds a true condition).
type queryDef struct {
	text string
	miss string
}

// classDef is one class of the traffic mix: share is its percentage of
// the ops.
type classDef struct {
	name     string
	share    int
	queries  []queryDef
	prepared bool // POST /v1/execute on a prepared handle
	miss     bool // every op is a never-seen string (plan-cache miss path)
}

var specs = []*spec{
	{
		name: "path_nav",
		why:  "corpus-wide path and attribute-variable queries in process: algebra/calculus/path navigation does the work, service and wal none",
		docs: 100, roots: 16, inproc: true, clients: 2, setups: 9, reopens: 9, sloMS: 150, traceOps: 3,
		classes: pathNavClasses,
	},
	{
		name: "text_http",
		why:  "Q1/Q2 joins and whole-article contains at Zipf ranks over loopback HTTP: text and the algebra join dominate, service is a few percent",
		docs: 1000, roots: 16, clients: 2, setups: 3, reopens: 3, sloMS: 150, traceOps: 5,
		classes: textClasses,
	},
	{
		name: "point_http",
		why:  "cheap point queries, open loop at a fixed rate with forced plan-cache misses: service, oql front end and plan cache dominate, evaluation is small",
		docs: 200, roots: 64, clients: 2, open: true, setups: 7, reopens: 7, sloMS: 20, traceOps: 60,
		classes: pointClasses,
	},
	{
		name: "ingest_mixed",
		why:  "durable batch loads with a live follower beside reads of named roots: the write path (parse, map, index clone, WAL fsync, checkpoint, feed) that the read workloads only read",
		docs: 400, roots: 16, clients: 1, ingest: true, setups: 5, reopens: 3, sloMS: 250, traceOps: 60,
		classes: readerClasses,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// word is the corpus vocabulary's word of the given Zipf rank.
func word(rank int) string { return fmt.Sprintf("w%04d", rank) }

// pickFrom draws n distinct numbers from [lo, hi).
func pickFrom(rng *rand.Rand, n, lo, hi int) []int {
	perm := rng.Perm(hi - lo)
	out := make([]int, n)
	for i := range out {
		out[i] = lo + perm[i]
	}
	return out
}

func pathNavClasses(rng *rand.Rand, s *spec) []classDef {
	extent := func(tag string) []queryDef {
		return []queryDef{{text: fmt.Sprintf(`select t from a in Articles, a PATH_p.%s(t)`, tag)}}
	}
	var q4, q5 []queryDef
	roots := pickFrom(rng, 8, 0, s.roots)
	for i, r := range roots {
		other := roots[(i+1)%len(roots)]
		q4 = append(q4, queryDef{text: fmt.Sprintf(`d%d PATH_p - d%d PATH_p`, r, other)})
		q5 = append(q5, queryDef{text: fmt.Sprintf(`select name(ATT_a) from d%d PATH_p.ATT_a(val) where val contains ("final")`, r)})
	}
	return []classDef{
		{name: "title", share: 35, queries: extent("title")},
		{name: "paragr", share: 25, queries: extent("paragr")},
		{name: "q5_extent", share: 15, queries: []queryDef{{text: `select name(ATT_a) from a in Articles, a PATH_p.ATT_a(val) where val contains ("final")`}}},
		{name: "abstract", share: 10, queries: extent("abstract")},
		{name: "q4", share: 10, queries: q4},
		{name: "q5_root", share: 5, queries: q5},
	}
}

// textClasses uses the same word ranks on every seed — only the corpus
// text and the op order change — so the mix costs the same across seeds:
// Q1 over the 16 commonest words, Q2 over six common and six middling
// ones, whole-article contains over six rare (rank 900–905), five middling
// and five common words, near over four common pairs.
func textClasses(_ *rand.Rand, _ *spec) []classDef {
	ranks := func(lo, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = lo + i
		}
		return out
	}
	var q1, q2, contains, near []queryDef
	for _, r := range ranks(0, 16) {
		q1 = append(q1, queryDef{text: fmt.Sprintf(
			`select tuple (t: a.title, f_author: first(a.authors)) from a in Articles, s in a.sections where s.title contains ("Section" and "%s")`, word(r))})
	}
	for _, r := range append(ranks(1, 6), ranks(100, 6)...) {
		q2 = append(q2, queryDef{text: fmt.Sprintf(
			`select ss from a in Articles, s in a.sections, ss in s.subsectns where text(ss) contains "%s"`, word(r))})
	}
	for _, r := range append(append(ranks(900, 6), ranks(100, 5)...), ranks(1, 5)...) {
		contains = append(contains, queryDef{text: fmt.Sprintf(`select a from a in Articles where a contains "%s"`, word(r))})
	}
	for _, r := range ranks(2, 4) {
		near = append(near, queryDef{text: fmt.Sprintf(`select a from a in Articles where near(a, "%s", "%s", 3)`, word(r), word(r+4))})
	}
	return []classDef{
		{name: "q1", share: 40, queries: q1},
		{name: "q2", share: 25, queries: q2},
		{name: "contains", share: 30, queries: contains},
		{name: "near", share: 5, queries: near},
	}
}

// pointPool is the 32-string working set of cheap named-root queries:
// four shapes on eight of the named roots. All are select queries, so
// they go through the plan cache; a bare expression such as d17.title
// bypasses it (the engine evaluates it directly) and would leave the
// miss path unexercised.
func pointPool(rng *rand.Rand, s *spec) []queryDef {
	shapes := []string{
		`select a from a in d%d.authors`,
		`select s.title from s in d%d.sections`,
		`select text(s.title) from s in d%d.sections`,
		`select t from d%d PATH_p.title(t)`, // Q3 on one article
	}
	var pool []queryDef
	for _, r := range pickFrom(rng, 8, 0, s.roots) {
		for _, shape := range shapes {
			q := fmt.Sprintf(shape, r)
			pool = append(pool, queryDef{text: q, miss: q + " where %d = %d"})
		}
	}
	return pool
}

// pointClasses: half ad hoc, half prepared; a fifth of the ad-hoc ops are
// never-seen strings, all of the Q3 shape, whose compilation expands the
// path variable over the schema and costs about ten hits. That is 10 % of
// all requests and the slowest class, so query_p95_ms sits in the middle
// of the miss class instead of on the edge between two classes.
func pointClasses(rng *rand.Rand, s *spec) []classDef {
	pool := pointPool(rng, s)
	var q3 []queryDef
	for _, q := range pool {
		if strings.Contains(q.text, "PATH_p") {
			q3 = append(q3, q)
		}
	}
	return []classDef{
		{name: "adhoc_hit", share: 40, queries: pool},
		{name: "adhoc_miss", share: 10, queries: q3, miss: true},
		{name: "prepared", share: 50, queries: pool, prepared: true},
	}
}

// readerClasses is ingest_mixed's reader: queries on named roots, whose
// answers loads do not change. Most are Q4, the difference of two
// articles' path sets, about 3 ms of evaluation each; the rest are Q5 on
// one article, a select the traced run can stage. The reader is heavier
// than point_http's pool on purpose: beside a writer and a follower that
// each hold a CPU for milliseconds, a 0.1 ms query is either served at
// once or waits out a scheduling quantum, and with ~5 % of requests
// waiting, p95 would sit on the edge between the two and swing by a third
// from run to run. With Q4 as 85 % of the requests both percentiles sit
// inside its one-mode distribution.
func readerClasses(rng *rand.Rand, s *spec) []classDef {
	roots := pickFrom(rng, 8, 0, s.roots)
	var q4, q5 []queryDef
	for i, r := range roots {
		q4 = append(q4, queryDef{text: fmt.Sprintf(`d%d PATH_p - d%d PATH_p`, r, roots[(i+1)%len(roots)])})
		q5 = append(q5, queryDef{text: fmt.Sprintf(`select name(ATT_a) from d%d PATH_p.ATT_a(val) where val contains ("final")`, r)})
	}
	return []classDef{
		{name: "q4", share: 85, queries: q4},
		{name: "q5_root", share: 15, queries: q5},
	}
}

// op is one scheduled request.
type op struct {
	query    int   // index into schedule.queries
	prepared bool  // execute the query's prepared handle
	miss     bool  // send the never-seen variant numbered by the op's position
	dueNS    int64 // open loop only: due time since the window opened
}

// schedule is a workload's deterministic request sequence: the distinct
// query strings and the shuffled cycle of ops over them. The same seed
// gives the same schedule.
type schedule struct {
	queries []queryDef
	cycle   []op
}

// newSchedule expands the class shares into one exact cycle and shuffles
// it.
func newSchedule(s *spec, seed int64) *schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x5ced))
	sc := &schedule{}
	index := map[string]int{}
	for _, c := range s.classes(rng, s) {
		ids := make([]int, len(c.queries))
		for i, q := range c.queries {
			id, seen := index[q.text]
			if !seen {
				id = len(sc.queries)
				index[q.text] = id
				sc.queries = append(sc.queries, q)
			}
			ids[i] = id
		}
		n := c.share * cycleLen / 100
		for i := 0; i < n; i++ {
			sc.cycle = append(sc.cycle, op{query: ids[i%len(ids)], prepared: c.prepared, miss: c.miss})
		}
	}
	rng.Shuffle(len(sc.cycle), func(i, j int) { sc.cycle[i], sc.cycle[j] = sc.cycle[j], sc.cycle[i] })
	return sc
}

// at is the i-th op of the endless closed-loop sequence.
func (sc *schedule) at(i int) op { return sc.cycle[i%len(sc.cycle)] }

// text is the query string op number i sends: the pooled string, or for a
// miss op the variant carrying a literal no earlier op has used.
func (sc *schedule) text(o op, i int) string {
	q := sc.queries[o.query]
	if o.miss {
		return fmt.Sprintf(q.miss, 900000+i, 900000+i)
	}
	return q.text
}

// arrivals returns the open-loop ops for a window of the given length:
// Poisson arrivals at rate per second, each timed from the window's
// opening.
func (sc *schedule) arrivals(seed int64, rate float64, windowNS int64) []op {
	rng := rand.New(rand.NewSource(seed ^ 0xa881))
	var out []op
	due := 0.0
	for i := 0; ; i++ {
		due += rng.ExpFloat64() / rate * 1e9
		if int64(due) >= windowNS {
			return out
		}
		o := sc.at(i)
		o.dueNS = int64(due)
		out = append(out, o)
	}
}

// hash fingerprints the first n ops of the sequence (closed-loop order,
// then open-loop due times), for the determinism test and the report.
func (sc *schedule) hash(seed int64, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		o := sc.at(i)
		h.Write([]byte(sc.text(o, i)))
		if o.prepared {
			h.Write([]byte{1})
		}
	}
	for _, o := range sc.arrivals(seed, openRate, 1e9) {
		binary.LittleEndian.PutUint64(buf[:], uint64(o.dueNS))
		h.Write(buf[:])
	}
	return h.Sum64()
}
