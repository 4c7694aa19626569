package sgmldb_test

// Replication micro/macro benchmarks (recorded in the repo benchmark as
// `facade.apply_record_us` and `service.follower_tax_us`; see
// bench/README.md — Promote has no repo-benchmark metric):
//
//	BenchmarkFollowerApply  apply throughput of the follower's replay
//	                        loop — one shipped KindLoad record per
//	                        iteration, applied straight to the COW
//	                        snapshot (the ceiling on how fast a follower
//	                        can track a primary)
//	BenchmarkFollowerQuery  client-observed read latency against a
//	                        converged follower over a real HTTP round
//	                        trip (the scale-out payoff the feed buys)
//	BenchmarkPromote        failover write-unavailability window — one
//	                        Promote() on a durable caught-up follower:
//	                        term record fsync plus the synchronous
//	                        fencing checkpoint (DESIGN.md §12)
//
// Run with: go test -run '^$' -bench 'Follower|Promote' .

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sgmldb"
	"sgmldb/internal/service"
	"sgmldb/internal/wal"
)

// BenchmarkFollowerApply measures the apply loop alone: records are
// pre-built (no wire, no decode), and each iteration replays a fixed
// 16-record batch into a fresh follower — per-batch commit cost grows
// with database size, so a fixed batch keeps iterations comparable.
// ns/op is one 16-document replay; records/s is the apply throughput.
func BenchmarkFollowerApply(b *testing.B) {
	const batch = 16
	dtd, doc := replCorpus(b)
	recs := make([]wal.Record, batch)
	for i := range recs {
		recs[i] = wal.Record{Seq: uint64(i + 2), Kind: wal.KindLoad, Docs: []string{doc}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fdb, err := sgmldb.OpenFollower(dtd)
		if err != nil {
			b.Fatal(err)
		}
		if err := fdb.ApplyRecord(wal.Record{Seq: 1, Kind: wal.KindSchema, Schema: dtd}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, rec := range recs {
			if err := fdb.ApplyRecord(rec); err != nil {
				b.Fatalf("ApplyRecord %d: %v", rec.Seq, err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkFollowerQuery measures a read against a live follower: a
// primary is loaded with 8 documents, a follower converges on it, and
// every iteration is one ad-hoc POST /v1/query over loopback HTTP —
// directly comparable to BenchmarkServiceQuery on the primary.
func BenchmarkFollowerQuery(b *testing.B) {
	dtd, doc := replCorpus(b)
	primary, err := sgmldb.OpenDTD(dtd, sgmldb.WithDataDir(b.TempDir()), sgmldb.WithCheckpointEvery(-1))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { primary.Close() })
	srcs := make([]string, 8)
	for i := range srcs {
		srcs[i] = doc
	}
	if _, err := primary.LoadDocuments(srcs); err != nil {
		b.Fatal(err)
	}
	psrv, err := service.New(primary, service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pts := httptest.NewServer(psrv)
	b.Cleanup(pts.Close)

	fdb, err := sgmldb.OpenFollower(dtd)
	if err != nil {
		b.Fatal(err)
	}
	fl := &service.Follower{DB: fdb, Primary: pts.URL, WaitMS: 200}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fl.Run(ctx) }()
	b.Cleanup(func() { cancel(); <-done })
	deadline := time.Now().Add(15 * time.Second)
	for fdb.AppliedSeq() != 2 {
		if time.Now().After(deadline) {
			b.Fatalf("follower never converged (applied %d)", fdb.AppliedSeq())
		}
		time.Sleep(2 * time.Millisecond)
	}

	fsrv, err := service.New(fdb, service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	fts := httptest.NewServer(fsrv)
	b.Cleanup(fts.Close)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, _ := benchPost(b, fts, "/v1/query", map[string]any{"query": benchServiceQuery})
		if status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	}
}

// BenchmarkPromote measures the promotion itself — the window during
// which neither node accepts writes during a controlled switchover.
// Each iteration builds a fresh durable follower off-clock (Promote is
// one-shot per node), applies a schema and a 16-document history, then
// times Promote(): the KindTerm append+fsync plus the synchronous
// new-term checkpoint that fences rejoining stale primaries.
func BenchmarkPromote(b *testing.B) {
	dtd, doc := replCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fdb, err := sgmldb.OpenFollower(dtd, sgmldb.WithDataDir(b.TempDir()), sgmldb.WithCheckpointEvery(-1))
		if err != nil {
			b.Fatal(err)
		}
		if err := fdb.ApplyRecord(wal.Record{Seq: 1, Kind: wal.KindSchema, Schema: dtd}); err != nil {
			b.Fatal(err)
		}
		for seq := uint64(2); seq <= 17; seq++ {
			if err := fdb.ApplyRecord(wal.Record{Seq: seq, Kind: wal.KindLoad, Docs: []string{doc}}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := fdb.Promote(); err != nil {
			b.Fatalf("Promote: %v", err)
		}
		b.StopTimer()
		fdb.Close()
		b.StartTimer()
	}
}
