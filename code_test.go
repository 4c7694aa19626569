package sgmldb

import (
	"context"
	"fmt"
	"testing"
)

// TestCodeRoundTrip asserts every exported sentinel maps to its own
// distinct, non-empty code — the wire contract cmd/sgmldbd builds its
// error bodies on — and that wrapping does not lose the classification.
func TestCodeRoundTrip(t *testing.T) {
	sentinels := []struct {
		err  error
		want string
	}{
		{ErrParse, CodeParse},
		{ErrTypecheck, CodeTypecheck},
		{ErrOverloaded, CodeOverloaded},
		{ErrBudgetExceeded, CodeBudget},
		{ErrInternal, CodeInternal},
		{ErrReadOnly, CodeReadOnly},
		{ErrUnknownObject, CodeUnknownObject},
		{ErrCorruptLog, CodeCorruptLog},
		{ErrUnsupportedVersion, CodeUnsupported},
	}
	seen := map[string]error{}
	for _, s := range sentinels {
		got := Code(s.err)
		if got != s.want {
			t.Errorf("Code(%v) = %q, want %q", s.err, got, s.want)
		}
		if got == CodeOK || got == CodeUnknown {
			t.Errorf("sentinel %v has no distinct code (got %q)", s.err, got)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("code %q is shared by %v and %v", got, prev, s.err)
		}
		seen[got] = s.err
		// Wrapping must not lose the classification.
		if wrapped := fmt.Errorf("context: %w", s.err); Code(wrapped) != s.want {
			t.Errorf("Code(wrapped %v) = %q, want %q", s.err, Code(wrapped), s.want)
		}
	}
	if got := Code(nil); got != CodeOK {
		t.Errorf("Code(nil) = %q, want %q", got, CodeOK)
	}
	if got := Code(context.Canceled); got != CodeCanceled {
		t.Errorf("Code(context.Canceled) = %q, want %q", got, CodeCanceled)
	}
	if got := Code(context.DeadlineExceeded); got != CodeDeadline {
		t.Errorf("Code(context.DeadlineExceeded) = %q, want %q", got, CodeDeadline)
	}
	if got := Code(fmt.Errorf("novel failure")); got != CodeUnknown {
		t.Errorf("Code(novel) = %q, want %q", got, CodeUnknown)
	}
}

// TestCodeFromLiveErrors asserts the classification holds for errors
// produced by the real engine, not just the bare sentinels.
func TestCodeFromLiveErrors(t *testing.T) {
	db := openWideDB(t)
	if _, err := db.Query(`select from where`); Code(err) != CodeParse {
		t.Errorf("malformed query: Code = %q (err %v), want %q", Code(err), err, CodeParse)
	}
	if _, err := db.Query(`select x from x in NoSuchRoot`); Code(err) != CodeTypecheck {
		t.Errorf("unknown root: Code = %q (err %v), want %q", Code(err), err, CodeTypecheck)
	}
	if _, err := db.QueryContext(context.Background(), wideQuery, QMaxRows(1)); Code(err) != CodeBudget {
		t.Errorf("budget kill: Code = %q (err %v), want %q", Code(err), err, CodeBudget)
	}
}
