package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sgmldb"
	"sgmldb/internal/corpus"
	"sgmldb/internal/service"
)

// checkpointEvery is the background checkpoint policy of every benchmark
// primary: one checkpoint per 64 committed records. It is wider than the
// engine's default of 8 so that the tailRecords batches loaded after an
// explicit Checkpoint() are never checkpointed away, which makes the
// replayed tail of recovery_s and replica_bootstrap_s the same length on
// every run.
const checkpointEvery = 64

// node is one database served on a loopback listener: the system under
// test. The benchmark only ever hands it generated SGML and query
// strings, in process or over HTTP.
type node struct {
	db   *sgmldb.Database
	url  string
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
}

// serve starts the HTTP service over db on a fresh loopback port.
func serve(db *sgmldb.Database) (*node, error) {
	srv, err := service.New(db, service.Config{})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{db: db, url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: srv}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns ErrServerClosed after close()
	}()
	return n, nil
}

// openPrimary opens a durable primary in dir and serves it.
func openPrimary(dir string) (*node, error) {
	db, err := sgmldb.OpenDTD(corpus.ArticleDTD,
		sgmldb.WithAlgebra(true), sgmldb.WithDataDir(dir), sgmldb.WithCheckpointEvery(checkpointEvery))
	if err != nil {
		return nil, fmt.Errorf("open primary: %w", err)
	}
	n, err := serve(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	return n, nil
}

// close stops the listener, waits for Serve to return, and closes the
// database (which waits for its checkpointer).
func (n *node) close() error {
	_ = n.hs.Close()
	<-n.done
	return n.db.Close()
}

// replica is an in-memory follower tailing a primary's feed, optionally
// served on its own listener for reads.
type replica struct {
	db     *sgmldb.Database
	node   *node // nil unless served
	cancel context.CancelFunc
	done   chan error // receives the tail loop's return value
}

// follow opens a fresh in-memory follower and starts tailing primaryURL.
func follow(primaryURL string, hc *http.Client, served bool) (*replica, error) {
	fdb, err := sgmldb.OpenFollower(corpus.ArticleDTD, sgmldb.WithAlgebra(true))
	if err != nil {
		return nil, fmt.Errorf("open follower: %w", err)
	}
	r := &replica{db: fdb, done: make(chan error, 1)}
	if served {
		if r.node, err = serve(fdb); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	fl := &service.Follower{DB: fdb, Primary: primaryURL, Client: hc, WaitMS: 200}
	go func() { r.done <- fl.Run(ctx) }()
	return r, nil
}

// waitFor blocks until the follower has applied seq, polling every
// millisecond. A tail loop that ended on its own is an error.
func (r *replica) waitFor(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for r.db.AppliedSeq() < seq {
		select {
		case err := <-r.done:
			r.done <- err
			return fmt.Errorf("follower stopped at seq %d of %d: %w", r.db.AppliedSeq(), seq, err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower applied %d of %d within %v", r.db.AppliedSeq(), seq, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close stops the tail loop, waits for it, and stops the listener.
func (r *replica) close() {
	r.cancel()
	<-r.done
	if r.node != nil {
		_ = r.node.hs.Close()
		<-r.node.done
	}
}

// client is the load generator's side of the wire: one http.Client whose
// transport keeps at most conns connections to the node.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errStatus is a non-200 answer: a refused, failed or shed request.
var errStatus = errors.New("http status")

// post sends one JSON body and returns the response body of a 200.
func (c *client) post(url string, body []byte) ([]byte, error) {
	return readOK(c.hc.Post(url, "application/json", bytes.NewReader(body)))
}

// get fetches url and returns the body of a 200.
func (c *client) get(url string) ([]byte, error) { return readOK(c.hc.Get(url)) }

// readOK drains and closes a response, and turns a non-200 into errStatus.
func readOK(resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w %d: %.200s", errStatus, resp.StatusCode, data)
	}
	return data, nil
}

// loadBody is the /v1/load request for one batch.
func loadBody(docs []string) []byte {
	raw, _ := json.Marshal(map[string]any{"documents": docs}) // strings always marshal
	return raw
}

// queryBody is the /v1/query request for one query string.
func queryBody(q string) []byte {
	raw, _ := json.Marshal(map[string]string{"query": q}) // strings always marshal
	return raw
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// copyDir copies the regular files directly in src into a new directory
// dst: the photograph of a data directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
