package pqfastscan_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsChecked are the documents whose code spans must name only things
// that exist: the design and the build-and-verify guide.
var docsChecked = []string{"DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	inlineSpan  = regexp.MustCompile("`[^`]+`")
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*(?:\.?\*)?`)
	sourceFile  = regexp.MustCompile(`[\w./$<>*-]*\w\.(?:go|s)\b`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestDocsNameOnlyWhatExists holds every code span of the checked
// documents to the tree: a Test…, Benchmark… or Fuzz… name must be a
// function in some _test.go file (a trailing * or, in a -run pattern,
// .* matches any with that prefix), and a *.go or *.s file name must
// be a file in the tree (matched by its path from the root or by its
// trailing path elements; a pattern holding $, < or * is skipped). A
// renamed test or a deleted file then cannot leave a stale pointer in
// the docs.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	funcs := map[string]bool{}
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				funcs[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	funcExists := func(name string) bool {
		prefix, ok := strings.CutSuffix(name, "*")
		if !ok {
			return funcs[name]
		}
		prefix = strings.TrimSuffix(prefix, ".")
		for f := range funcs {
			if strings.HasPrefix(f, prefix) {
				return true
			}
		}
		return false
	}
	fileExists := func(name string) bool {
		name = strings.TrimPrefix(name, "./")
		for _, f := range files {
			if f == name || strings.HasSuffix(f, "/"+name) {
				return true
			}
		}
		return false
	}

	for _, doc := range docsChecked {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		spans := fencedBlock.FindAllString(text, -1)
		spans = append(spans, inlineSpan.FindAllString(fencedBlock.ReplaceAllString(text, ""), -1)...)
		for _, span := range spans {
			for _, name := range testName.FindAllString(span, -1) {
				if !funcExists(name) {
					t.Errorf("%s names %s, which no _test.go defines", doc, name)
				}
			}
			for _, name := range sourceFile.FindAllString(span, -1) {
				if !strings.ContainsAny(name, "$<>*") && !fileExists(name) {
					t.Errorf("%s names %s, which is not in the tree", doc, name)
				}
			}
		}
	}
}
