package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"sgmldb"
	"sgmldb/internal/faultpoint"
	"sgmldb/internal/wal"
)

// Follower is the replication client: it tails a primary's /v1/feed and
// applies the shipped records to a local OpenFollower database. On a 410
// SEQ_TRUNCATED — the primary checkpointed past our anchor — or a 409
// STALE_TERM — a promotion elsewhere forked past our anchor — it
// bootstraps from /v1/checkpoint and resumes tailing. Transient failures
// (network, primary restarting, primary draining) retry under
// full-jitter exponential backoff; the loop runs until ctx is cancelled.
// Every request anchors at (DB.AppliedSeq(), DB.Term()), so a restarted
// or reconnected follower resumes exactly where it stopped — no record
// is re-applied or skipped — and a primary whose history diverged from
// that anchor is detected on the first poll, not after records applied.
//
// Two self-protection mechanisms harden the loop (DESIGN.md §12):
//
//   - Every request carries a deadline: the feed poll gets its long-poll
//     window plus a grace period, a bootstrap gets bootstrapTimeout. A
//     half-dead primary that accepts connections and then hangs costs
//     one deadline, not a stuck follower.
//   - Checkpoint bootstraps run behind a circuit breaker: after
//     BreakerThreshold consecutive bootstrap failures the breaker opens
//     and the loop probes half-open once per BreakerCooldown instead of
//     hammering a primary that is itself struggling to checkpoint. One
//     success closes it. The state is pushed into the database
//     (Stats.BreakerOpen, /v1/health breaker_open) so operators see it.
type Follower struct {
	DB      *sgmldb.Database // an OpenFollower database
	Primary string           // primary base URL, e.g. http://10.0.0.1:8080
	Key     string           // API key for the primary (empty in open mode)

	// Optional knobs; zero values get serviceable defaults.
	Client           *http.Client
	WaitMS           uint64        // feed long-poll window
	MinBackoff       time.Duration // backoff ceiling for the first retry
	MaxBackoff       time.Duration // backoff ceiling growth cap
	BreakerThreshold int           // consecutive bootstrap failures that open the breaker
	BreakerCooldown  time.Duration // delay between half-open probes while the breaker is open
}

// feedGrace pads the feed request deadline past the long-poll window:
// the window is server time, the grace covers the network round-trip and
// body transfer.
const feedGrace = 5 * time.Second

const (
	bootstrapTimeout        = 30 * time.Second // deadline of one checkpoint download
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 5 * time.Second
)

// fpFollowerApply fails the apply of one shipped record: the chaos suite
// arms it to prove a follower that dies mid-batch resumes from its last
// applied record, not the batch boundary.
var fpFollowerApply = faultpoint.New("service/follower-apply")

func (f *Follower) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return http.DefaultClient
}

func (f *Follower) backoffBounds() (lo, hi time.Duration) {
	lo, hi = f.MinBackoff, f.MaxBackoff
	if lo <= 0 {
		lo = 50 * time.Millisecond
	}
	if hi <= 0 {
		hi = 3 * time.Second
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// backoffDelay picks the sleep before retry attempt (0-based) under full
// jitter: uniform in (0, min(MaxBackoff, MinBackoff<<attempt)]. Full
// jitter beats deterministic doubling when many followers lose the same
// primary at once — their retries spread over the window instead of
// arriving in synchronized waves.
func (f *Follower) backoffDelay(attempt int) time.Duration {
	lo, hi := f.backoffBounds()
	ceil := hi
	if attempt < 30 {
		if c := lo << attempt; c < hi {
			ceil = c
		}
	}
	return rand.N(ceil) + 1
}

func (f *Follower) breakerThreshold() int {
	if f.BreakerThreshold > 0 {
		return f.BreakerThreshold
	}
	return defaultBreakerThreshold
}

func (f *Follower) breakerCooldown() time.Duration {
	if f.BreakerCooldown > 0 {
		return f.BreakerCooldown
	}
	return defaultBreakerCooldown
}

// Run tails the primary until ctx is cancelled. It returns ctx.Err() on
// cancellation; any other return is a permanent failure (a DTD mismatch,
// a poisoned stream) that retrying cannot fix.
func (f *Follower) Run(ctx context.Context) error {
	attempt := 0
	bootFails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progressed, err := f.poll(ctx)
		switch {
		case err == nil:
			// Any successful round-trip closes the breaker, not only a
			// bootstrap: a loop that recovered via a plain poll must not
			// report breaker_open forever (or keep the cooldown pacing).
			f.DB.SetBreakerOpen(false)
			attempt, bootFails = 0, 0
			continue
		case errors.Is(err, errBootstrap):
			if berr := f.bootstrap(ctx); berr == nil {
				f.DB.ObserveRebootstrap()
				f.DB.SetBreakerOpen(false)
				attempt, bootFails = 0, 0
				continue
			} else if ctx.Err() != nil {
				return ctx.Err()
			}
			// Bootstrap failed (primary mid-checkpoint, transient error):
			// count it toward the breaker, then back off and retry the
			// whole handshake.
			if bootFails++; bootFails >= f.breakerThreshold() {
				f.DB.SetBreakerOpen(true)
			}
		case ctx.Err() != nil:
			return ctx.Err()
		case isPermanent(err):
			return err
		}
		if progressed {
			attempt = 0
		}
		delay := f.backoffDelay(attempt)
		if f.DB.BreakerOpen() {
			// Open breaker: one half-open probe per cooldown, nothing in
			// between. The cooldown dominates the jittered backoff.
			delay = f.breakerCooldown()
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
		attempt++
	}
}

// errBootstrap signals poll saw 410 SEQ_TRUNCATED or 409 STALE_TERM: the
// anchor is not in the primary's history (checkpointed away, or forked
// past by a promotion) and the follower must install a checkpoint.
var errBootstrap = errors.New("service: feed anchor unusable; checkpoint bootstrap required")

// isPermanent classifies apply-side failures retrying cannot fix.
func isPermanent(err error) bool {
	return errors.Is(err, errApply)
}

// errApply wraps a local ApplyRecord failure: the shipped record decoded
// cleanly but would not apply, which re-fetching the same record cannot
// cure.
var errApply = errors.New("service: applying shipped record")

// poll performs one feed round-trip and applies what it got. progressed
// reports whether at least one record applied, so the caller can reset
// its backoff even when the stream then broke.
func (f *Follower) poll(ctx context.Context) (progressed bool, err error) {
	after := f.DB.AppliedSeq()
	url := fmt.Sprintf("%s/v1/feed?after=%d&term=%d&wait_ms=%d&max_bytes=%d",
		f.Primary, after, f.DB.Term(), f.waitMS(), feedDefaultMaxB)
	deadline := time.Duration(f.waitMS())*time.Millisecond + feedGrace
	body, hdr, status, err := f.get(ctx, url, deadline)
	if err != nil {
		return false, err
	}
	switch status {
	case http.StatusOK:
	case http.StatusGone:
		return false, errBootstrap
	case http.StatusConflict:
		// 409 STALE_TERM: a promotion forked history past our anchor. Our
		// unshipped suffix is garbage; re-bootstrap truncates it.
		return false, fmt.Errorf("%w (%s)", errBootstrap, wireError(status, body))
	default:
		return false, fmt.Errorf("service: feed: %s", wireError(status, body))
	}
	if seq, perr := strconv.ParseUint(hdr.Get(headerPrimarySeq), 10, 64); perr == nil {
		f.DB.ObservePrimarySeq(seq)
	}
	// Fencing, follower side: a source whose term is behind ours is a
	// deposed primary still serving its old history. Nothing it ships may
	// apply — drop the whole response before decoding a single frame.
	if srcTerm, perr := strconv.ParseUint(hdr.Get(headerTerm), 10, 64); perr == nil && srcTerm > 0 {
		if myTerm := f.DB.Term(); myTerm > 0 && srcTerm < myTerm {
			return false, fmt.Errorf("service: feed source at stale term %d, local history already at term %d: %w",
				srcTerm, myTerm, sgmldb.ErrStaleTerm)
		}
	}
	// Decode and apply frame by frame. A decode failure means the stream
	// was cut mid-frame (a killed primary, a dropped connection): keep
	// what applied, re-anchor, and let the next poll refetch the rest —
	// the same torn-tail tolerance local recovery has.
	off := 0
	for off < len(body) {
		rec, n, derr := wal.DecodeFrame(body[off:])
		if derr != nil {
			return progressed, fmt.Errorf("service: feed stream cut at offset %d: %w", off, derr)
		}
		off += n
		if rec.Seq <= f.DB.AppliedSeq() {
			continue // duplicate delivery after a re-anchor race: skip
		}
		if ferr := fpFollowerApply.Hit(); ferr != nil {
			return progressed, fmt.Errorf("service: apply record %d: %w", rec.Seq, ferr)
		}
		if aerr := f.DB.ApplyRecord(rec); aerr != nil {
			switch {
			case errors.Is(aerr, sgmldb.ErrReplicaGap):
				// The stream skipped records we never saw; only a
				// checkpoint can carry us over the hole.
				return progressed, fmt.Errorf("%w (record %d: %w)", errBootstrap, rec.Seq, aerr)
			case errors.Is(aerr, sgmldb.ErrStaleTerm):
				// A stale-term record slipped into an otherwise current
				// response (promotion racing the poll): drop the batch and
				// re-anchor; retrying sorts out who is current.
				return progressed, fmt.Errorf("service: apply record %d: %w", rec.Seq, aerr)
			default:
				return progressed, fmt.Errorf("%w %d: %w", errApply, rec.Seq, aerr)
			}
		}
		progressed = true
	}
	return progressed, nil
}

// bootstrap fetches and installs the primary's newest checkpoint.
func (f *Follower) bootstrap(ctx context.Context) error {
	body, hdr, status, err := f.get(ctx, f.Primary+"/v1/checkpoint", bootstrapTimeout)
	if err != nil {
		return err
	}
	if status == http.StatusNotFound {
		// No checkpoint on the primary, yet the feed said our anchor is
		// truncated — a prune race; retry the handshake.
		return fmt.Errorf("service: bootstrap: primary has no checkpoint yet")
	}
	if status != http.StatusOK {
		return fmt.Errorf("service: bootstrap: %s", wireError(status, body))
	}
	// Fencing, bootstrap side: a source whose term is behind ours is a
	// deposed primary. Installing its checkpoint would adopt its forked
	// history wholesale (and durably discard our newer-term records), so
	// refuse before decoding a byte. ApplyCheckpoint re-checks against the
	// checkpoint's own term as the last line of defense.
	if srcTerm, perr := strconv.ParseUint(hdr.Get(headerTerm), 10, 64); perr == nil && srcTerm > 0 {
		if myTerm := f.DB.Term(); myTerm > 0 && srcTerm < myTerm {
			return fmt.Errorf("service: bootstrap source at stale term %d, local history already at term %d: %w",
				srcTerm, myTerm, sgmldb.ErrStaleTerm)
		}
	}
	ck, err := wal.DecodeCheckpoint(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("service: bootstrap: decoding checkpoint: %w", err)
	}
	if err := f.DB.ApplyCheckpoint(ck); err != nil {
		return fmt.Errorf("service: bootstrap: %w", err)
	}
	return nil
}

// get performs one authenticated GET under a deadline and slurps the
// body. A read error mid-body returns what arrived: the frame decoder
// treats the missing rest as a stream cut.
func (f *Follower) get(ctx context.Context, url string, timeout time.Duration) (body []byte, hdr http.Header, status int, err error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	if f.Key != "" {
		req.Header.Set("Authorization", "Bearer "+f.Key)
	}
	resp, err := f.client().Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if rerr != nil && len(body) == 0 {
		return nil, nil, 0, rerr
	}
	return body, resp.Header, resp.StatusCode, nil
}

// wireError renders an error response for a log line: the envelope's
// code and message when the body parses, the raw status otherwise.
func wireError(status int, body []byte) string {
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error.Code != "" {
		return fmt.Sprintf("%d %s: %s", status, eb.Error.Code, eb.Error.Message)
	}
	return fmt.Sprintf("status %d", status)
}

func (f *Follower) waitMS() uint64 {
	if f.WaitMS > 0 {
		return f.WaitMS
	}
	return feedDefaultWaitMS
}
