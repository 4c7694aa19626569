// Command sgmldbd serves one SGML database over HTTP — the network query
// service of DESIGN.md §9. It opens a database from a DTD (optionally
// durable under -data, optionally preloading documents), mounts the
// internal/service handlers, and runs until SIGINT/SIGTERM, at which
// point it drains: new requests get 503, in-flight requests finish, a
// final checkpoint is written, and the process exits 0.
//
// Usage:
//
//	sgmldbd -dtd article.dtd [-addr 127.0.0.1:8344] [-tenants tenants.json]
//	        [-data dir] [-max-concurrent N] [-max-rows N] [-max-memory B]
//	        [-query-timeout D] [-drain-timeout D] [doc.sgml …]
//	sgmldbd -dtd article.dtd -follow http://primary:8344 [-follow-key K] [-data dir] [flags]
//
// Without -tenants the server runs in open mode: every caller is one
// anonymous tenant with no per-tenant limits (the database-level budgets
// still apply). With -tenants, callers authenticate with
// "Authorization: Bearer <key>" or "X-API-Key: <key>".
//
// With -follow the process is a read-only follower (DESIGN.md §10): it
// bootstraps from the primary's newest checkpoint, tails its log feed,
// and serves queries at the primary's epoch; loads are rejected with
// READ_ONLY. Document preloading is primary-only. -follow combined with
// -data runs a *durable* follower (DESIGN.md §12): the shipped log is
// re-persisted locally, which survives restarts without a re-bootstrap
// and makes the node eligible for promotion — POST /v1/promote flips it
// into a writable primary at a fresh term and stops the tail loop.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sgmldb"
	"sgmldb/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sgmldbd:", err)
		os.Exit(1)
	}
}

func run() error {
	dtdPath := flag.String("dtd", "", "DTD file (required)")
	addr := flag.String("addr", "127.0.0.1:8344", "listen address")
	tenantsPath := flag.String("tenants", "", "tenants config file (JSON); empty = open mode")
	dataDir := flag.String("data", "", "data directory for durable operation (WAL + checkpoints)")
	maxConcurrent := flag.Int("max-concurrent", 0, "database-wide concurrent query limit (0 = unlimited)")
	queueTimeout := flag.Duration("queue-timeout", 0, "how long a query may wait for an admission slot")
	maxRows := flag.Int64("max-rows", 0, "database-wide per-query row budget (0 = unlimited)")
	maxMemory := flag.Int64("max-memory", 0, "database-wide per-query memory budget in bytes (0 = unlimited)")
	queryTimeout := flag.Duration("query-timeout", 0, "database-wide per-query wall-clock budget (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	follow := flag.String("follow", "", "primary base URL; run as a read-only follower")
	followKey := flag.String("follow-key", "", "API key the follower presents to the primary")
	followWait := flag.Uint64("follow-wait-ms", 0, "feed long-poll window in ms (0 = server default)")
	flag.Parse()
	if *dtdPath == "" {
		return fmt.Errorf("usage: sgmldbd -dtd file.dtd [flags] [doc.sgml…]")
	}
	if *follow != "" && flag.NArg() > 0 {
		return fmt.Errorf("-follow rejects document preloading: followers are read-only")
	}

	var opts []sgmldb.Option
	if *dataDir != "" {
		opts = append(opts, sgmldb.WithDataDir(*dataDir))
	}
	if *maxConcurrent > 0 {
		opts = append(opts, sgmldb.WithMaxConcurrentQueries(*maxConcurrent))
	}
	if *queueTimeout > 0 {
		opts = append(opts, sgmldb.WithQueueTimeout(*queueTimeout))
	}
	if *maxRows > 0 {
		opts = append(opts, sgmldb.WithMaxRows(*maxRows))
	}
	if *maxMemory > 0 {
		opts = append(opts, sgmldb.WithMaxMemory(*maxMemory))
	}
	if *queryTimeout > 0 {
		opts = append(opts, sgmldb.WithQueryTimeout(*queryTimeout))
	}

	var db *sgmldb.Database
	var err error
	if *follow != "" {
		dtdSrc, rerr := os.ReadFile(*dtdPath)
		if rerr != nil {
			return rerr
		}
		db, err = sgmldb.OpenFollower(string(dtdSrc), opts...)
	} else {
		db, err = sgmldb.OpenDTDFile(*dtdPath, opts...)
	}
	if err != nil {
		return err
	}
	for _, path := range flag.Args() {
		if _, err := db.LoadDocumentFile(path); err != nil {
			return fmt.Errorf("preloading %s: %w", path, err)
		}
	}

	// In follower mode, start the replication client before serving: the
	// first poll bootstraps from the primary's checkpoint, later ones tail
	// its live log. The tail loop is cancelled first thing at shutdown.
	var stopTail context.CancelFunc
	tailDone := make(chan struct{})
	close(tailDone)
	if *follow != "" {
		var tailCtx context.Context
		tailCtx, stopTail = context.WithCancel(context.Background())
		defer stopTail()
		fl := &service.Follower{DB: db, Primary: *follow, Key: *followKey, WaitMS: *followWait}
		tailDone = make(chan struct{})
		go func() {
			defer close(tailDone)
			if err := fl.Run(tailCtx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("sgmldbd: replication stopped: %v", err)
			}
		}()
	}

	// On a durable node, watch the role and the storage health and log
	// once per change: every role transition (promoted, fenced, degraded)
	// with its cause, and every change of the checkpoint-failure streak.
	// Polling is fine here — the states are sticky or slow-moving, and one
	// line per change keeps the log greppable instead of scrolling.
	stopMonitor := func() {}
	if *dataDir != "" {
		monCtx, cancel := context.WithCancel(context.Background())
		monDone := make(chan struct{})
		stopMonitor = func() {
			cancel()
			<-monDone
		}
		go func() {
			defer close(monDone)
			watchRole(monCtx, db)
		}()
	}

	cfg := service.Config{}
	if *tenantsPath != "" {
		cfg, err = service.LoadConfig(*tenantsPath)
		if err != nil {
			return err
		}
	}
	srv, err := service.New(db, cfg)
	if err != nil {
		return err
	}
	if *follow != "" {
		// POST /v1/promote flipped the database writable: stop tailing the
		// old primary — this process is the primary now.
		srv.OnPromote = func(term uint64) {
			log.Printf("sgmldbd: promoted to primary at term %d, stopping replication tail", term)
			if stopTail != nil {
				stopTail()
			}
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	mode := "open mode"
	if n := len(cfg.Tenants); n > 0 {
		mode = fmt.Sprintf("%d-tenant mode", n)
	}
	if *follow != "" {
		mode += fmt.Sprintf(", following %s", *follow)
	}
	log.Printf("sgmldbd: serving on %s (%s, epoch %d)", *addr, mode, db.Epoch())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("sgmldbd: %v, draining", s)
	}

	// Graceful shutdown: flip the service into draining (503 for new
	// calls), let http.Server.Shutdown wait out the in-flight handlers,
	// then checkpoint and close the durability machinery.
	srv.Drain()
	stopMonitor()
	if stopTail != nil {
		stopTail()
		<-tailDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("sgmldbd: shutdown: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		log.Printf("sgmldbd: final checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		return err
	}
	log.Printf("sgmldbd: drained, bye")
	return nil
}

// watchRole polls the database's role and storage state — a handful of
// atomic loads a second — and logs once per transition: role changes with
// their cause (a fenced or degraded primary is otherwise silent until a
// write fails) and checkpoint failure-streak changes (with the last error
// while failing, or an all-clear when a checkpoint succeeds again).
func watchRole(ctx context.Context, db *sgmldb.Database) {
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	role := db.Role()
	var lastStreak uint64
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if now := db.Role(); now != role {
			log.Printf("sgmldbd: role %s -> %s: %s", role, now, roleCause(db, now))
			role = now
		}
		if _, streak, lastErr := db.CheckpointFailures(); streak != lastStreak {
			lastStreak = streak
			if streak > 0 {
				log.Printf("sgmldbd: checkpoint failing (%d consecutive): %s", streak, lastErr)
			} else {
				log.Printf("sgmldbd: checkpoint succeeded, failure streak cleared")
			}
		}
	}
}

// roleCause words why the node holds the role it reports.
func roleCause(db *sgmldb.Database, role string) string {
	switch role {
	case "degraded":
		_, reason := db.DegradedState()
		return "storage fault: " + reason
	case "fenced":
		return fmt.Sprintf("a remote reported a term above %d, writes answer STALE_TERM", db.Term())
	}
	return fmt.Sprintf("term %d", db.Term())
}
