package analysis

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness: each testdata/src/<name> package is loaded and
// analyzed, and the diagnostics are compared against `// want "…"`
// comments — every quoted string must be a substring of a diagnostic
// reported on that line, and every diagnostic must be accounted for by a
// want. Diagnostics from the "directive" pseudo-analyzer (malformed
// //lint:allow) are returned to the caller for explicit assertion, since
// their positions are the directive comments themselves.

var wantRE = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)

type wantSite struct {
	file string
	line int
	subs []string
	hits int
}

func loadFixture(t *testing.T, name string) *Program {
	t.Helper()
	prog, err := Load(".", []string{"./testdata/src/" + name})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(prog.Targets) != 1 {
		t.Fatalf("fixture %s: got %d target packages, want 1", name, len(prog.Targets))
	}
	return prog
}

// collectWants scans the fixture's comments for want expectations.
func collectWants(t *testing.T, prog *Program) []*wantSite {
	t.Helper()
	var wants []*wantSite
	for _, pkg := range prog.Targets {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					site := &wantSite{file: pos.Filename, line: pos.Line}
					for _, q := range regexp.MustCompile(`"(?:[^"\\]|\\.)*"`).FindAllString(m[1], -1) {
						s, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						site.subs = append(site.subs, s)
					}
					wants = append(wants, site)
				}
			}
		}
	}
	return wants
}

// checkFixture runs the named analyzer over the fixture and verifies the
// want expectations, returning any "directive" diagnostics.
func checkFixture(t *testing.T, fixture, analyzer string) []Diagnostic {
	t.Helper()
	prog := loadFixture(t, fixture)
	analyzers, err := ByName(analyzer)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	diags := Run(prog, analyzers)
	wants := collectWants(t, prog)
	var directives []Diagnostic
	for _, d := range diags {
		if d.Analyzer == "directive" {
			directives = append(directives, d)
			continue
		}
		pos := prog.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			ok := true
			for _, sub := range w.subs {
				if !strings.Contains(d.Message, sub) {
					ok = false
					break
				}
			}
			if ok {
				w.hits++
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if w.hits == 0 {
			t.Errorf("missing diagnostic at %s:%d: want %q", w.file, w.line, w.subs)
		}
	}
	return directives
}

func TestExhaustiveFixture(t *testing.T) {
	checkFixture(t, "exhaustive", "exhaustive")
}

func TestCtxpollFixture(t *testing.T) {
	checkFixture(t, "ctxpoll", "ctxpoll")
}

func TestLockcheckFixture(t *testing.T) {
	checkFixture(t, "lockcheck", "lockcheck")
}

func TestErrwrapFixture(t *testing.T) {
	checkFixture(t, "errwrap", "errwrap")
}

func TestPanicFixture(t *testing.T) {
	directives := checkFixture(t, "panic", "panic")
	if len(directives) != 1 {
		t.Fatalf("got %d directive diagnostics, want 1 (the reason-less //lint:allow)", len(directives))
	}
	if !strings.Contains(directives[0].Message, "malformed //lint:allow") {
		t.Errorf("directive diagnostic = %q, want malformed //lint:allow", directives[0].Message)
	}
}

func TestFaultpointFixture(t *testing.T) {
	checkFixture(t, "faultguard", "faultpoint")
}

// TestVariantRemovalIsNamed is the acceptance check in executable form:
// deleting a variant from a closed-set switch must fail the build with a
// diagnostic naming the missing case. The fixture's missingConst switch
// plays the deleted-variant role — the diagnostic must name KindC
// specifically, not merely report non-exhaustiveness.
func TestVariantRemovalIsNamed(t *testing.T) {
	prog := loadFixture(t, "exhaustive")
	diags := Run(prog, []*Analyzer{ExhaustiveAnalyzer})
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "missing KindC") {
			found = true
		}
	}
	if !found {
		t.Errorf("no diagnostic names the missing variant KindC; got %v", messages(diags))
	}
}

func messages(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Message)
	}
	return out
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("exhaustive, panic")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset = %d analyzers, err %v", len(two), err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) did not fail")
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   string
	}{
		{"%s %d", "sd"},
		{"100%% %v", "v"},
		{"%+v %#x %08.3f", "vxf"},
		{"%*d %w", "*dw"},
		{"%[1]s", "s"},
		{"plain", ""},
	}
	for _, c := range cases {
		got := string(formatVerbs(c.format))
		if got != c.want {
			t.Errorf("formatVerbs(%q) = %q, want %q", c.format, got, c.want)
		}
	}
}

func TestAtomicCheckFixture(t *testing.T) {
	checkFixture(t, "atomiccheck", "atomiccheck")
}

func TestSnapshotPinFixture(t *testing.T) {
	checkFixture(t, "snapshotpin", "snapshotpin")
}

func TestWireCodeFixture(t *testing.T) {
	checkFixture(t, "wirecode", "wirecode")
}

// TestLoadNoPackages pins the driver-error path: patterns that match
// nothing must be a load error (exit 2 at the CLI), not a silent clean
// run.
func TestLoadNoPackages(t *testing.T) {
	if _, err := Load(".", []string{"./testdata/src/no-such-package"}); err == nil {
		t.Fatal("Load of a nonexistent pattern did not fail")
	}
}

// TestBaselineRoundTrip covers the grandfather machinery: BaselineOf →
// Apply marks exactly the recorded findings, and entries that match
// nothing come back stale.
func TestBaselineRoundTrip(t *testing.T) {
	findings := []Finding{
		{Analyzer: "atomiccheck", File: "a.go", Line: 3, Message: "plain access"},
		{Analyzer: "wirecode", File: "b.go", Line: 9, Message: "no mapping"},
		{Analyzer: "wirecode", File: "b.go", Line: 12, Message: "suppressed one", Suppressed: true},
	}
	b := BaselineOf(findings)
	if len(b.Findings) != 2 {
		t.Fatalf("BaselineOf kept %d entries, want 2 (suppressed findings excluded)", len(b.Findings))
	}
	stale := b.Apply(findings)
	if len(stale) != 0 {
		t.Fatalf("round-trip Apply reported stale entries: %v", stale)
	}
	for i, f := range findings {
		wantBaselined := !f.Suppressed
		if f.Baselined != wantBaselined {
			t.Errorf("finding %d: Baselined = %v, want %v", i, f.Baselined, wantBaselined)
		}
		if f.Active() {
			t.Errorf("finding %d still active after Apply", i)
		}
	}
	orphan := &Baseline{Version: 1, Findings: []BaselineEntry{
		{Analyzer: "ctxpoll", File: "gone.go", Message: "fixed long ago"},
	}}
	if stale := orphan.Apply(findings); len(stale) != 1 {
		t.Fatalf("orphan baseline: got %d stale entries, want 1", len(stale))
	}
}

// TestParallelDeterminism pins the driver's ordering contract: a fully
// parallel run over the repository — fresh load, so even token.Pos
// assignment order differs — reports byte-identical findings to a
// single-goroutine run.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo loads in -short mode")
	}
	render := func(workers int) []string {
		prog, err := Load("../..", []string{"./..."})
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		var out []string
		for _, f := range Analyze(prog, Analyzers(), workers) {
			out = append(out, strconv.Itoa(f.Line)+":"+strconv.Itoa(f.Col)+":"+f.File+
				":["+f.Analyzer+"] "+f.Message)
		}
		return out
	}
	serial := render(1)
	parallel := render(8)
	if len(serial) != len(parallel) {
		t.Fatalf("serial run: %d findings, parallel run: %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("finding %d differs:\n  serial:   %s\n  parallel: %s", i, serial[i], parallel[i])
		}
	}
}

// TestRepoIsClean pins the tentpole's acceptance criterion: the analyzers
// run clean over the repository itself.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load in -short mode")
	}
	prog, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags := Run(prog, Analyzers())
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		t.Errorf("%s:%d: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
	}
}
