package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sgmldb"
)

// Server is the HTTP front door over one shared Database. Handlers are
// plain net/http; every endpoint except /v1/health authenticates an API
// key to a tenant and runs under that tenant's limits. The server is an
// http.Handler, so it is unit-testable with httptest and mountable under
// any mux or middleware in cmd/sgmldbd.
//
// Endpoints:
//
//	POST   /v1/query            O₂SQL source → JSON rows
//	POST   /v1/prepare          source → prepared-statement handle
//	POST   /v1/execute/{handle} run a prepared handle → JSON rows
//	DELETE /v1/execute/{handle} close a handle
//	POST   /v1/load             batch SGML load, all-or-nothing
//	GET    /v1/health           liveness + draining (no auth)
//	GET    /v1/stats            engine + service counters
type Server struct {
	db  *sgmldb.Database
	mux *http.ServeMux

	// byKey resolves an API key to its tenant. open is the anonymous
	// tenant used when no tenants are configured (open mode); nil
	// otherwise, in which case a missing or unknown key is 401.
	byKey map[string]*tenant
	open  *tenant

	// draining rejects new work with 503 while in-flight calls finish —
	// the graceful-shutdown handshake (Drain, then http.Server.Shutdown).
	// drainCh is closed by Drain so parked feed long-polls wake at once
	// instead of riding out their wait.
	draining atomic.Bool
	drainCh  chan struct{}

	// handles is the wire-level prepared-statement table. Handles are
	// tenant-owned: executing or closing another tenant's handle is
	// indistinguishable from a handle that never existed. The statements
	// themselves share the engine's bounded plan cache, so a handle is
	// cheap: the table bounds live handles per tenant, not plans.
	handlesMu  sync.Mutex
	handles    map[string]*handle
	nextHandle uint64

	// OnPromote, when set, is called once per successful POST /v1/promote
	// with the new term, after the database has switched to primary. The
	// daemon uses it to stop its replication tail loop — the process is the
	// primary now and has nothing to follow. Set before serving; called
	// from the request handler's goroutine.
	OnPromote func(newTerm uint64)
}

// tenant is one tenant's runtime state: its config grant, an admission
// semaphore when MaxConcurrent is set, and serving counters.
type tenant struct {
	cfg   TenantConfig
	slots chan struct{}

	queries    atomic.Uint64
	loads      atomic.Uint64
	rejected   atomic.Uint64 // over-limit 429s
	errors     atomic.Uint64 // calls that returned any error body
	numHandles atomic.Int64
}

// admit takes one of the tenant's slots without blocking: per-tenant
// over-limit is rejected immediately (429), never queued, so a tenant's
// excess cannot occupy the shared gate. release must be called iff ok.
func (t *tenant) admit() (release func(), ok bool) {
	if t.slots == nil {
		return func() {}, true
	}
	select {
	case t.slots <- struct{}{}:
		return func() { <-t.slots }, true
	default:
		t.rejected.Add(1)
		return nil, false
	}
}

// maxHandles resolves the tenant's live-handle bound.
func (t *tenant) maxHandles() int64 {
	if t.cfg.MaxHandles > 0 {
		return int64(t.cfg.MaxHandles)
	}
	return DefaultMaxHandles
}

// handle is one wire-level prepared statement.
type handle struct {
	id     string
	owner  *tenant
	pq     *sgmldb.PreparedQuery
	source string
}

// New builds a server over a database and a tenant table. An empty table
// runs in open mode (one anonymous unlimited tenant).
func New(db *sgmldb.Database, cfg Config) (*Server, error) {
	s := &Server{
		db:      db,
		byKey:   map[string]*tenant{},
		handles: map[string]*handle{},
		drainCh: make(chan struct{}),
	}
	for _, tc := range cfg.Tenants {
		t := &tenant{cfg: tc}
		if tc.MaxConcurrent > 0 {
			t.slots = make(chan struct{}, tc.MaxConcurrent)
		}
		if _, dup := s.byKey[tc.APIKey]; dup {
			return nil, fmt.Errorf("service: duplicate api_key for tenant %q", tc.Name)
		}
		s.byKey[tc.APIKey] = t
	}
	if len(s.byKey) == 0 {
		s.open = &tenant{cfg: TenantConfig{Name: "open"}}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	mux.HandleFunc("POST /v1/execute/{handle}", s.handleExecute)
	mux.HandleFunc("DELETE /v1/execute/{handle}", s.handleClose)
	mux.HandleFunc("POST /v1/load", s.handleLoad)
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/feed", s.handleFeed)
	mux.HandleFunc("GET /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain flips the server into shutdown mode: every subsequent call (even
// health-checked ones) reports draining, and API endpoints reject with
// 503 so load balancers move on while http.Server.Shutdown waits for the
// in-flight handlers. Parked feed long-polls are woken immediately.
// Draining is one-way.
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Service-level wire codes, complementing the sgmldb.Code taxonomy. Same
// contract: stable, machine-readable, never reused.
const (
	codeBadRequest    = "BAD_REQUEST"
	codeUnauthorized  = "UNAUTHORIZED"
	codeForbidden     = "FORBIDDEN"
	codeTenantLimit   = "TENANT_LIMIT"
	codeUnknownHandle = "UNKNOWN_HANDLE"
	codeHandleLimit   = "HANDLE_LIMIT"
	codeDraining      = "DRAINING"
	codeBadDocument   = "BAD_DOCUMENT"
	codeNoCheckpoint  = "NO_CHECKPOINT"
)

// statusClientClosedRequest is the de-facto standard (nginx) status for a
// caller that went away mid-call: not a client error the caller will ever
// read, not a server fault — its own class, visible in access logs.
const statusClientClosedRequest = 499

// statusFor maps a wire code (service-level or sgmldb.Code) to its HTTP
// status. Unknown codes are 500: an unclassified failure is the server's
// fault until proven otherwise.
func statusFor(code string) int {
	switch code {
	case sgmldb.CodeParse, sgmldb.CodeTypecheck, codeBadRequest:
		return http.StatusBadRequest
	case codeUnauthorized:
		return http.StatusUnauthorized
	case codeForbidden, sgmldb.CodeReadOnly, sgmldb.CodeNotPrimary:
		return http.StatusForbidden
	case codeUnknownHandle, sgmldb.CodeUnknownObject, codeNoCheckpoint:
		return http.StatusNotFound
	case sgmldb.CodeSeqTruncated:
		return http.StatusGone
	case sgmldb.CodeStaleTerm, sgmldb.CodeReplicaGap, sgmldb.CodeNotFollower:
		// Term conflicts are state conflicts, not client errors: the
		// caller's view of who is primary disagrees with this node's.
		return http.StatusConflict
	case sgmldb.CodeCanceled:
		// The caller hung up mid-call; nobody is reading this response.
		return statusClientClosedRequest
	case codeTenantLimit, codeHandleLimit:
		return http.StatusTooManyRequests
	case codeBadDocument:
		return http.StatusUnprocessableEntity
	case sgmldb.CodeBudget:
		return http.StatusUnprocessableEntity
	case sgmldb.CodeOverloaded, sgmldb.CodeDegraded, codeDraining:
		// DEGRADED is 503, not 403: the rejection is about the node's
		// storage health, not the caller's rights — retrying against a
		// healthy replica can succeed.
		return http.StatusServiceUnavailable
	case sgmldb.CodeDeadline:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// fail writes the error envelope for a wire code.
func fail(w http.ResponseWriter, code, message string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = message
	writeJSON(w, statusFor(code), body)
}

// failErr classifies a Database error through sgmldb.Code and writes it.
func failErr(w http.ResponseWriter, err error) {
	fail(w, sgmldb.Code(err), err.Error())
}

// failCall writes a failed call's error and counts it against the tenant
// — except client cancellation: a caller hanging up mid-query is not a
// serving failure, and counting it would let impatient clients inflate
// the server's error rate.
func (t *tenant) failCall(w http.ResponseWriter, err error) {
	code := sgmldb.Code(err)
	if code != sgmldb.CodeCanceled {
		t.errors.Add(1)
	}
	fail(w, code, err.Error())
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	//lint:allow errcheck the response writer's error has nowhere to go
	_ = enc.Encode(v)
}

// tenantFor authenticates the request: Authorization: Bearer <key> or
// X-API-Key. In open mode every request is the anonymous tenant.
func (s *Server) tenantFor(r *http.Request) (*tenant, bool) {
	if s.open != nil {
		return s.open, true
	}
	key := r.Header.Get("X-API-Key")
	if auth := r.Header.Get("Authorization"); key == "" && strings.HasPrefix(auth, "Bearer ") {
		key = strings.TrimPrefix(auth, "Bearer ")
	}
	t, ok := s.byKey[key]
	return t, ok
}

// enter runs the common preamble of every governed endpoint: draining,
// auth, per-tenant admission. On failure it has already written the
// response and returns ok=false.
func (s *Server) enter(w http.ResponseWriter, r *http.Request) (t *tenant, release func(), ok bool) {
	if s.draining.Load() {
		fail(w, codeDraining, "server is draining")
		return nil, nil, false
	}
	t, ok = s.tenantFor(r)
	if !ok {
		fail(w, codeUnauthorized, "missing or unknown API key")
		return nil, nil, false
	}
	release, ok = t.admit()
	if !ok {
		fail(w, codeTenantLimit, fmt.Sprintf("tenant %q already has %d calls in flight", t.cfg.Name, t.cfg.MaxConcurrent))
		return nil, nil, false
	}
	return t, release, true
}

// callLimits are the per-request budget overrides every query-ish body
// may carry. They tighten the tenant's limits, never exceed them.
type callLimits struct {
	MaxRows        int64 `json:"max_rows"`
	MaxMemoryBytes int64 `json:"max_memory_bytes"`
	TimeoutMS      int64 `json:"timeout_ms"`
}

// options resolves the tenant grant and the request overrides into
// per-call query options. Both layers only tighten: minNonZero per axis
// here, then the database-level budgets clamp once more inside the
// facade.
func options(t *tenant, req callLimits) []sgmldb.QueryOption {
	rows := minNonZero(t.cfg.MaxRows, req.MaxRows)
	mem := minNonZero(t.cfg.MaxMemoryBytes, req.MaxMemoryBytes)
	timeout := time.Duration(minNonZero(t.cfg.TimeoutMS, req.TimeoutMS)) * time.Millisecond
	var opts []sgmldb.QueryOption
	if rows > 0 {
		opts = append(opts, sgmldb.QMaxRows(rows))
	}
	if mem > 0 {
		opts = append(opts, sgmldb.QMaxMemory(mem))
	}
	if timeout > 0 {
		opts = append(opts, sgmldb.QTimeout(timeout))
	}
	return opts
}

// minNonZero merges one limit axis (0 = unlimited): the tighter of the
// two, or whichever is set.
func minNonZero(a, b int64) int64 {
	switch {
	case a <= 0:
		return b
	case b <= 0:
		return a
	case b < a:
		return b
	default:
		return a
	}
}

// maxBody bounds request bodies (queries and document batches) so one
// malformed client cannot balloon the server.
const maxBody = 64 << 20

// decode reads one JSON request body.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		fail(w, codeBadRequest, "reading request body: "+err.Error())
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		fail(w, codeBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

// rowsResponse is the uniform success envelope of query and execute.
type rowsResponse struct {
	Rows      []any  `json:"rows"`
	Count     int    `json:"count"`
	ElapsedUS int64  `json:"elapsed_us"`
	Epoch     uint64 `json:"epoch"`
}

// handleQuery runs one ad-hoc O₂SQL query under the caller's limits.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, release, ok := s.enter(w, r)
	if !ok {
		return
	}
	defer release()
	var req struct {
		Query string `json:"query"`
		callLimits
	}
	if !decode(w, r, &req) {
		t.errors.Add(1)
		return
	}
	if req.Query == "" {
		t.errors.Add(1)
		fail(w, codeBadRequest, `body needs a "query" field`)
		return
	}
	t.queries.Add(1)
	start := time.Now()
	v, err := s.db.QueryContext(r.Context(), req.Query, options(t, req.callLimits)...)
	if err != nil {
		t.failCall(w, err)
		return
	}
	rows := RowsJSON(v)
	writeJSON(w, http.StatusOK, rowsResponse{
		Rows:      rows,
		Count:     len(rows),
		ElapsedUS: time.Since(start).Microseconds(),
		Epoch:     s.db.Epoch(),
	})
}

// handlePrepare compiles a query once and returns a handle for repeated
// execution. The compiled plan lives in the engine's shared bounded plan
// cache; the handle pins the statement for this tenant.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	t, release, ok := s.enter(w, r)
	if !ok {
		return
	}
	defer release()
	var req struct {
		Query string `json:"query"`
	}
	if !decode(w, r, &req) {
		t.errors.Add(1)
		return
	}
	if req.Query == "" {
		t.errors.Add(1)
		fail(w, codeBadRequest, `body needs a "query" field`)
		return
	}
	// Reserve the slot before compiling: a load-then-add after the insert
	// would let N concurrent prepares all pass the check at the old count
	// and blow past the quota together. Add first, roll back on failure.
	if t.numHandles.Add(1) > t.maxHandles() {
		t.numHandles.Add(-1)
		t.errors.Add(1)
		fail(w, codeHandleLimit, fmt.Sprintf("tenant %q already holds %d prepared handles; close some", t.cfg.Name, t.maxHandles()))
		return
	}
	pq, err := s.db.Prepare(req.Query)
	if err != nil {
		t.numHandles.Add(-1)
		t.errors.Add(1)
		failErr(w, err)
		return
	}
	s.handlesMu.Lock()
	s.nextHandle++
	h := &handle{id: "h" + strconv.FormatUint(s.nextHandle, 10), owner: t, pq: pq, source: req.Query}
	s.handles[h.id] = h
	s.handlesMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"handle": h.id, "query": req.Query})
}

// lookupHandle resolves a handle id for a tenant. Another tenant's handle
// is reported exactly like a nonexistent one.
func (s *Server) lookupHandle(t *tenant, id string) (*handle, bool) {
	s.handlesMu.Lock()
	defer s.handlesMu.Unlock()
	h, ok := s.handles[id]
	if !ok || h.owner != t {
		return nil, false
	}
	return h, true
}

// handleExecute runs a prepared handle under the caller's limits.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	t, release, ok := s.enter(w, r)
	if !ok {
		return
	}
	defer release()
	h, ok := s.lookupHandle(t, r.PathValue("handle"))
	if !ok {
		t.errors.Add(1)
		fail(w, codeUnknownHandle, fmt.Sprintf("no prepared handle %q", r.PathValue("handle")))
		return
	}
	// The body is optional: an empty body means no per-call overrides.
	var req callLimits
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		t.errors.Add(1)
		fail(w, codeBadRequest, "reading request body: "+err.Error())
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			t.errors.Add(1)
			fail(w, codeBadRequest, "malformed JSON body: "+err.Error())
			return
		}
	}
	t.queries.Add(1)
	start := time.Now()
	v, err := h.pq.Run(r.Context(), options(t, req)...)
	if err != nil {
		t.failCall(w, err)
		return
	}
	rows := RowsJSON(v)
	writeJSON(w, http.StatusOK, rowsResponse{
		Rows:      rows,
		Count:     len(rows),
		ElapsedUS: time.Since(start).Microseconds(),
		Epoch:     s.db.Epoch(),
	})
}

// handleClose frees a prepared handle.
func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	t, release, ok := s.enter(w, r)
	if !ok {
		return
	}
	defer release()
	id := r.PathValue("handle")
	s.handlesMu.Lock()
	h, ok := s.handles[id]
	if ok && h.owner == t {
		delete(s.handles, id)
	}
	s.handlesMu.Unlock()
	if !ok || h.owner != t {
		t.errors.Add(1)
		fail(w, codeUnknownHandle, fmt.Sprintf("no prepared handle %q", id))
		return
	}
	h.owner.numHandles.Add(-1)
	writeJSON(w, http.StatusOK, map[string]any{"closed": id})
}

// handleLoad loads a batch of SGML documents as one atomic unit (PR 3
// semantics: either every document becomes visible in one epoch or none
// does), returning the new document oids.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	t, release, ok := s.enter(w, r)
	if !ok {
		return
	}
	defer release()
	if t.cfg.DenyLoad {
		t.errors.Add(1)
		fail(w, codeForbidden, fmt.Sprintf("tenant %q may not load documents", t.cfg.Name))
		return
	}
	var req struct {
		Documents []string `json:"documents"`
	}
	if !decode(w, r, &req) {
		t.errors.Add(1)
		return
	}
	if len(req.Documents) == 0 {
		t.errors.Add(1)
		fail(w, codeBadRequest, `body needs a non-empty "documents" array`)
		return
	}
	t.loads.Add(1)
	start := time.Now()
	oids, err := s.db.LoadDocuments(req.Documents)
	if err != nil {
		t.errors.Add(1)
		// Anything the taxonomy cannot name on this path is a rejected
		// document (SGML parse/validation failure): the client's fault,
		// not the server's.
		if code := sgmldb.Code(err); code == sgmldb.CodeUnknown {
			fail(w, codeBadDocument, err.Error())
		} else {
			failErr(w, err)
		}
		return
	}
	ids := make([]string, len(oids))
	for i, oid := range oids {
		ids[i] = oid.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"oids":       ids,
		"count":      len(ids),
		"epoch":      s.db.Epoch(),
		"elapsed_us": time.Since(start).Microseconds(),
	})
}

// handleHealth is the unauthenticated liveness probe. A follower also
// reports how far behind the primary it is, so probes can take a lagging
// replica out of rotation. A degraded primary (poisoned write-ahead log)
// reports status "degraded" with the sticky reason — but stays 200: the
// node still serves reads and ships its feed, and only write probes
// should route around it. Checkpoint-failure telemetry rides along on
// every durable node so monitors catch a sick disk before it poisons.
// The role is always present: it is the one place a fenced or closed
// node — healthy by every other field — says it refuses writes.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	degraded, reason := s.db.DegradedState()
	if degraded {
		status = "degraded"
	}
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	body := map[string]any{"status": status, "epoch": s.db.Epoch(), "role": s.db.Role()}
	if degraded {
		body["degraded"] = true
		body["degraded_reason"] = reason
	}
	if total, streak, lastErr := s.db.CheckpointFailures(); total > 0 {
		body["checkpoint_failures"] = total
		body["checkpoint_fail_streak"] = streak
		body["last_checkpoint_error"] = lastErr
	}
	if s.db.IsFollower() {
		applied, primary := s.db.AppliedSeq(), s.db.PrimarySeq()
		var lag uint64
		if primary > applied {
			lag = primary - applied
		}
		body["follower"] = true
		body["applied_seq"] = applied
		body["primary_seq"] = primary
		body["lag"] = lag
	}
	// Failover telemetry (DESIGN.md §12): always present so monitors see a
	// promotion as a term step, not a field appearing out of nowhere.
	body["term"] = s.db.Term()
	body["promotions"] = s.db.Promotions()
	body["rebootstraps"] = s.db.Rebootstraps()
	body["breaker_open"] = s.db.BreakerOpen()
	writeJSON(w, code, body)
}

// tenantStats is one tenant's row in the stats response.
type tenantStats struct {
	Name     string `json:"name"`
	Queries  uint64 `json:"queries"`
	Loads    uint64 `json:"loads"`
	Rejected uint64 `json:"rejected"`
	Errors   uint64 `json:"errors"`
	Handles  int64  `json:"handles"`
}

// handleStats reports the engine counters (sgmldb.Stats) plus the
// service-level view: per-tenant counters and the handle table.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.tenantFor(r); !ok {
		fail(w, codeUnauthorized, "missing or unknown API key")
		return
	}
	s.handlesMu.Lock()
	numHandles := len(s.handles)
	s.handlesMu.Unlock()
	tenants := make([]tenantStats, 0, len(s.byKey)+1)
	add := func(tn *tenant) {
		tenants = append(tenants, tenantStats{
			Name:     tn.cfg.Name,
			Queries:  tn.queries.Load(),
			Loads:    tn.loads.Load(),
			Rejected: tn.rejected.Load(),
			Errors:   tn.errors.Load(),
			Handles:  tn.numHandles.Load(),
		})
	}
	if s.open != nil {
		add(s.open)
	}
	for _, tn := range s.byKey {
		add(tn)
	}
	// byKey is a map: without a sort, consecutive scrapes reorder tenants
	// and diff-based monitors see phantom churn.
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{
		"engine": s.db.Stats(),
		"service": map[string]any{
			"draining": s.draining.Load(),
			"handles":  numHandles,
			"tenants":  tenants,
		},
	})
}
