// Package analysistest runs an analyzer against packages under
// testdata/src and checks its diagnostics against `// want "regexp"`
// expectations, in the spirit of x/tools' analysistest but built on the
// in-process loader (no external dependencies, no GOPATH construction).
//
// Each `// want` comment names one or more quoted regular expressions; a
// diagnostic matches an expectation when it is reported on the comment's
// line in the comment's file and its message matches the regexp. Every
// diagnostic must match an expectation and every expectation must be
// matched by at least one diagnostic.
package analysistest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// The loader is shared process-wide: the source importer's parsed stdlib
// is by far the dominant cost, and positions stay comparable because every
// test shares one FileSet.
var (
	loaderOnce sync.Once
	sharedLdr  *analysis.Loader
)

// Loader returns the process-wide loader, rooted at the calling test's
// testdata/src and at the repository two directories up.
func Loader(t *testing.T) *analysis.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		testdata, err := filepath.Abs("testdata/src")
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		repoRoot, err := filepath.Abs("../..")
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		sharedLdr = analysis.NewLoader(testdata, repoRoot)
	})
	return sharedLdr
}

// Run loads each named testdata package, applies the analyzer, and
// reports mismatches between diagnostics and want expectations as test
// errors.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	ldr := Loader(t)
	for _, pkgPath := range pkgs {
		lp, err := ldr.Load(pkgPath)
		if err != nil {
			t.Errorf("%s: loading %s: %v", a.Name, pkgPath, err)
			continue
		}
		diags, err := analysis.Analyze(a, lp)
		if err != nil {
			t.Errorf("%s: analyzing %s: %v", a.Name, pkgPath, err)
			continue
		}
		checkExpectations(t, a, lp, diags)
	}
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func checkExpectations(t *testing.T, a *analysis.Analyzer, lp *analysis.LoadedPackage, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range lp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, lp, c)...)
			}
		}
	}

	for _, d := range diags {
		pos := lp.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s: %s", a.Name, pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none", a.Name, w.re, filepath.Base(w.file), w.line)
		}
	}
}

// parseWants extracts the expectations from one comment: everything after
// the word "want" as a sequence of Go string literals.
func parseWants(t *testing.T, lp *analysis.LoadedPackage, c *ast.Comment) []*expectation {
	t.Helper()
	text := strings.TrimPrefix(c.Text, "//")
	idx := strings.Index(text, "want ")
	if idx < 0 || !isWantBoundary(text, idx) {
		return nil
	}
	rest := strings.TrimSpace(text[idx+len("want "):])
	pos := lp.Fset.Position(c.Pos())
	var out []*expectation
	for rest != "" {
		lit, remainder, err := quotedPrefix(rest)
		if err != nil {
			t.Errorf("malformed want expectation at %s: %q", pos, rest)
			return out
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Errorf("bad want regexp at %s: %v", pos, err)
			return out
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
		rest = strings.TrimSpace(remainder)
	}
	return out
}

// isWantBoundary guards against words containing "want" (e.g. "wanted"):
// the match must start the comment or follow whitespace.
func isWantBoundary(text string, idx int) bool {
	return idx == 0 || text[idx-1] == ' ' || text[idx-1] == '\t'
}

// quotedPrefix splits one leading Go string literal (double- or
// back-quoted) off s.
func quotedPrefix(s string) (value, rest string, err error) {
	prefix, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", err
	}
	value, err = strconv.Unquote(prefix)
	if err != nil {
		return "", "", err
	}
	return value, s[len(prefix):], nil
}
