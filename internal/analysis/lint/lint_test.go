package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"matproj/internal/analysis/lint"
)

// moduleRoot climbs from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

func newLoader(t *testing.T) *lint.Loader {
	t.Helper()
	l, err := lint.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func analyzerByName(t *testing.T, name string) *lint.Analyzer {
	t.Helper()
	for _, a := range lint.Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// runFixture loads testdata/src/<dir> as if it lived at asPath and runs
// one analyzer over it.
func runFixture(t *testing.T, l *lint.Loader, dir, asPath, analyzer string) []lint.Diagnostic {
	t.Helper()
	pkg, err := l.LoadFixture(filepath.Join("testdata", "src", dir), asPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	for _, te := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", dir, te)
	}
	cfg := lint.DefaultConfig(l.ModulePath)
	return lint.Run(pkg, cfg, []*lint.Analyzer{analyzerByName(t, analyzer)})
}

// want is one expectation parsed from a fixture comment:
//
//	<code> // want `regex`
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	var wants []want
	fixDir := filepath.Join("testdata", "src", dir)
	ents, err := os.ReadDir(fixDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(fixDir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex: %v", path, line, err)
			}
			wants = append(wants, want{file: e.Name(), line: line, re: re})
		}
		f.Close()
	}
	return wants
}

// checkGolden matches diagnostics against want expectations one-to-one.
func checkGolden(t *testing.T, dir string, diags []lint.Diagnostic) {
	t.Helper()
	wants := parseWants(t, dir)
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || filepath.Base(d.Pos.Filename) != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: missing expected diagnostic at %s:%d matching %q", dir, w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic %s", dir, d)
		}
	}
}

func TestGoldenFixtures(t *testing.T) {
	l := newLoader(t)
	cases := []struct {
		dir      string
		analyzer string
		asPath   string
	}{
		// Each fixture is mounted at an import path inside the
		// analyzer's scope.
		{"clockdiscipline", "clockdiscipline", "matproj/internal/fireworks/lintfixture"},
		{"seededrand", "seededrand", "matproj/internal/faults/lintfixture"},
		{"fsyncerr", "fsyncerr", "matproj/internal/datastore/lintfixture"},
		{"docaliasing", "docaliasing", "matproj/internal/builder/lintfixture"},
		{"lockheld", "lockheld", "matproj/internal/cluster/lintfixture"},
		{"wrapcheck", "wrapcheck", "matproj/internal/cluster/lintfixture"},
		{"suppress", "clockdiscipline", "matproj/internal/fireworks/lintfixture"},
		{"lockorder", "lockorder", "matproj/internal/cluster/lintfixture"},
		{"goroleak", "goroleak", "matproj/internal/cluster/lintfixture"},
		{"gendiscipline", "gendiscipline", "matproj/internal/datastore/lintfixture"},
		{"atomicmix", "atomicmix", "matproj/internal/cluster/lintfixture"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			diags := runFixture(t, l, tc.dir, tc.asPath, tc.analyzer)
			checkGolden(t, tc.dir, diags)
		})
	}
}

// TestAliasScopeCoversCmdAndExamples mounts the docaliasing fixture in
// cmd/ and examples/: command mains and examples read through the same
// shared-snapshot API, so every finding must appear there too.
func TestAliasScopeCoversCmdAndExamples(t *testing.T) {
	l := newLoader(t)
	for _, asPath := range []string{"matproj/cmd/lintfixture", "matproj/examples/lintfixture"} {
		checkGolden(t, "docaliasing", runFixture(t, l, "docaliasing", asPath, "docaliasing"))
	}
}

// TestClockAllowlist mounts the clockdiscipline fixture inside
// internal/obs, which is allowlisted: every finding must vanish.
func TestClockAllowlist(t *testing.T) {
	l := newLoader(t)
	diags := runFixture(t, l, "clockdiscipline", "matproj/internal/obs/lintfixture", "clockdiscipline")
	if len(diags) != 0 {
		t.Fatalf("allowlisted package still produced findings: %v", diags)
	}
}

// TestFileIgnore verifies //lint:file-ignore silences the named
// analyzer for the whole file.
func TestFileIgnore(t *testing.T) {
	l := newLoader(t)
	diags := runFixture(t, l, "fileignore", "matproj/internal/fireworks/lintfixture", "clockdiscipline")
	if len(diags) != 0 {
		t.Fatalf("file-ignore did not suppress: %v", diags)
	}
}

// TestReasonlessDirective verifies a directive without a reason is
// itself reported and suppresses nothing.
func TestReasonlessDirective(t *testing.T) {
	l := newLoader(t)
	diags := runFixture(t, l, "badsuppress", "matproj/internal/fireworks/lintfixture", "clockdiscipline")
	var sawDirective, sawSleep bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "lint" && strings.Contains(d.Message, "needs a reason"):
			sawDirective = true
		case d.Analyzer == "clockdiscipline" && strings.Contains(d.Message, "time.Sleep"):
			sawSleep = true
		default:
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	if !sawDirective {
		t.Error("reason-less directive was not reported")
	}
	if !sawSleep {
		t.Error("reason-less directive suppressed the finding it covered")
	}
}

// TestSelect covers the -only/-skip plumbing, including unknown names.
func TestSelect(t *testing.T) {
	all := lint.Analyzers()
	only, err := lint.Select(all, []string{"fsyncerr"}, nil)
	if err != nil || len(only) != 1 || only[0].Name != "fsyncerr" {
		t.Fatalf("Select only: %v %v", only, err)
	}
	skipped, err := lint.Select(all, nil, []string{"fsyncerr", "wrapcheck"})
	if err != nil || len(skipped) != len(all)-2 {
		t.Fatalf("Select skip: %v %v", skipped, err)
	}
	if _, err := lint.Select(all, []string{"nope"}, nil); err == nil {
		t.Fatal("Select accepted an unknown analyzer name")
	}
}

// TestSelfHosted runs the full suite over the lint package and the
// mplint command themselves: the analyzers must come back clean on
// their own source.
func TestSelfHosted(t *testing.T) {
	l := newLoader(t)
	root := moduleRoot(t)
	cfg := lint.DefaultConfig(l.ModulePath)
	targets := []struct{ dir, asPath string }{
		{filepath.Join(root, "internal", "analysis", "lint"), "matproj/internal/analysis/lint"},
		{filepath.Join(root, "cmd", "mplint"), "matproj/cmd/mplint"},
	}
	for _, tgt := range targets {
		pkg, err := l.LoadFixture(tgt.dir, tgt.asPath)
		if err != nil {
			t.Fatalf("load %s: %v", tgt.asPath, err)
		}
		for _, te := range pkg.TypeErrors {
			t.Fatalf("%s: type error: %v", tgt.asPath, te)
		}
		if diags := lint.Run(pkg, cfg, lint.Analyzers()); len(diags) != 0 {
			for _, d := range diags {
				t.Errorf("self-hosted finding: %s", d)
			}
		}
	}
}

// TestDiagnosticString pins the position-accurate rendering contract
// that scripts/check.sh greps.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{Analyzer: "fsyncerr", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line, d.Pos.Column = 3, 7
	want := fmt.Sprintf("%s:%d:%d: %s (%s)", "x.go", 3, 7, "boom", "fsyncerr")
	if d.String() != want {
		t.Fatalf("String = %q, want %q", d.String(), want)
	}
}
