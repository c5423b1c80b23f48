package btrace

import (
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocCitations holds every test a document names to a declaration,
// so that a renamed or deleted test cannot leave a claim behind that
// nothing checks. `make vet` runs it. It reads:
//
//   - DESIGN.md and every package doc (the comment on a package clause)
//     of the root module and bench/: each Test, Benchmark, Fuzz or
//     Example name there must be declared in a *_test.go file of either,
//     a trailing `*` making the name a prefix;
//   - every `-run` and `-fuzz` pattern in the Makefile, scripts/*.sh and
//     .github/workflows: each alternative must select a declared test,
//     or that step would run nothing and pass. Their `#` comment lines
//     are skipped.
//
// Names are read from `func` declarations, not from `go test -list`, so
// that tests behind build tags count. Other comments are not read (a
// comment may quote a benchmark's output line), nor is ROADMAP.md,
// which names tests that are yet to be written.
func TestDocCitations(t *testing.T) {
	declared, docs := scanTree(t)
	if len(declared) == 0 {
		t.Fatal("no test declarations found")
	}
	sources := map[string]string{"DESIGN.md": readFile(t, "DESIGN.md")}
	for path, doc := range docs {
		sources[path+" (package doc)"] = doc
	}
	var cites, selects int
	for _, src := range slices.Sorted(maps.Keys(sources)) {
		for _, m := range citedName.FindAllStringSubmatch(sources[src], -1) {
			cites++
			if !citationResolves(m[1], m[2] == "*", declared) {
				t.Errorf("%s cites %s%s, which no *_test.go declares", src, m[1], m[2])
			}
		}
	}

	scripts, _ := filepath.Glob("scripts/*.sh")
	workflows, _ := filepath.Glob(".github/workflows/*.yml")
	for _, path := range append(append([]string{"Makefile"}, scripts...), workflows...) {
		text := strings.ReplaceAll(readFile(t, path), "$$", "$")
		text = commentLine.ReplaceAllString(text, "")
		for _, m := range selectFlag.FindAllStringSubmatch(text, -1) {
			flag, pattern := m[1], m[2]+m[3]+m[4]
			for _, alt := range alternatives(pattern) {
				selects++
				if !patternSelects(alt, flag, declared) {
					t.Errorf("%s: -%s %q: %q selects no declared test", path, flag, pattern, alt)
				}
			}
		}
	}
	t.Logf("%d citations and %d -run/-fuzz alternatives checked against %d declarations", cites, selects, len(declared))
}

var (
	citedName   = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*)(\*?)`)
	declName    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	commentLine = regexp.MustCompile(`(?m)^\s*#.*$`)
	selectFlag  = regexp.MustCompile(`(?:^|\s)-(run|fuzz)[ =](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
)

// scanTree walks the module (bench/ included) and returns the declared
// test names and each package's doc text, keyed by directory.
func scanTree(t *testing.T) (map[string]bool, map[string]string) {
	declared := map[string]bool{}
	docs := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if strings.HasSuffix(name, "_test.go") {
			for _, m := range declName.FindAllStringSubmatch(readFile(t, path), -1) {
				declared[m[1]] = true
			}
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		if f.Doc != nil {
			docs[filepath.Dir(path)] += f.Doc.Text()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared, docs
}

func citationResolves(name string, prefix bool, declared map[string]bool) bool {
	if !prefix {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}

// alternatives splits a -run or -fuzz pattern into its top-level
// alternatives, each cut to its first level (the part before a `/`
// that selects subtests), leaving out the empty ones (`^$`).
func alternatives(pattern string) []string {
	var alts []string
	add := func(alt string) {
		alt, _, _ = strings.Cut(alt, "/")
		if strings.Trim(alt, "^$") != "" {
			alts = append(alts, alt)
		}
	}
	depth, start := 0, 0
	for i, c := range pattern {
		switch {
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			add(pattern[start:i])
			start = i + 1
		}
	}
	add(pattern[start:])
	return alts
}

// patternSelects reports whether alt, as `go test` reads it, matches a
// declared test of the kind the flag runs.
func patternSelects(alt, flag string, declared map[string]bool) bool {
	re, err := regexp.Compile(alt)
	if err != nil {
		return false
	}
	kinds := []string{"Test", "Example", "Fuzz"}
	if flag == "fuzz" {
		kinds = []string{"Fuzz"}
	}
	for d := range declared {
		for _, k := range kinds {
			if strings.HasPrefix(d, k) && re.MatchString(d) {
				return true
			}
		}
	}
	return false
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
