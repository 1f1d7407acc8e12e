package pqfastscan_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
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
	// itemCite is a "ROADMAP item N" citation, N perhaps with a part
	// letter, the words possibly broken across comment lines.
	itemCite = regexp.MustCompile(`ROADMAP(?:\s|//)+item(?:\s|//)+(\d+)([a-z]?)\b`)
	// itemHeading is a ROADMAP.md item heading, "### N. …".
	itemHeading = regexp.MustCompile(`(?m)^### (\d+)\. `)
	// sectionCite is a "DESIGN.md §N" or "DESIGN §N" citation with the
	// ", §M" or " and §M" continuations of a list, the words possibly
	// broken across comment lines; sectionNumber picks the Ns out of it.
	sectionCite   = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//)+§\d+(?:(?:,|\s+and)(?:\s|//)+§\d+)*`)
	sectionNumber = regexp.MustCompile(`§(\d+)`)
	// sectionHeading is a DESIGN.md section heading, "## §N …", and
	// inventorySection the text of §2, up to the next heading.
	sectionHeading   = regexp.MustCompile(`(?m)^## §(\d+) `)
	inventorySection = regexp.MustCompile(`(?s)\n## §2 .*?(?:\n## §|$)`)
	// runKey is a workflow step's run: key and its value ("|" or ">"
	// opening a block of the lines indented below it).
	runKey = regexp.MustCompile(`^(\s*)(?:-\s+)?run:\s*(.*)$`)
	// goRun is a `go run ./<dir>`; goBuildOut a `go build -o <out>
	// ./<pkg>…`, <pkg> perhaps a ./… pattern.
	goRun      = regexp.MustCompile(`\bgo run\b(?:\s+-\S+)*\s+\./(\S+)`)
	goBuildOut = regexp.MustCompile(`\bgo build\b.*?\s-o\s+(\S+)((?:\s+\./\S+)+)`)
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

// goFiles lists every .go file of the tree outside .git and testdata,
// the program files whose comments the citation checks read.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDocsCiteOnlyRoadmapItemsThatExist holds every "ROADMAP item N"
// of the program's Go files, DESIGN.md and the verify guide to
// ROADMAP.md: N must be the number of an "### N." heading there, and a
// cited part ("item 1f") must be an "(f)" of that item's text. A
// renumbered, merged or finished-and-deleted item then cannot leave a
// stale pointer behind.
func TestDocsCiteOnlyRoadmapItemsThatExist(t *testing.T) {
	src, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	roadmap := string(src)
	items := map[string]string{} // number → the item's text
	heads := itemHeading.FindAllStringSubmatchIndex(roadmap, -1)
	for i, h := range heads {
		end := len(roadmap)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		items[roadmap[h[2]:h[3]]] = roadmap[h[0]:end]
	}
	if len(items) == 0 {
		t.Fatal("ROADMAP.md has no ### N. headings: the check is looking at the wrong file")
	}

	docs := append(goFiles(t), docsChecked...)
	cites := 0
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range itemCite.FindAllStringSubmatch(string(src), -1) {
			cites++
			item, ok := items[m[1]]
			switch {
			case !ok:
				t.Errorf("%s cites ROADMAP item %s%s, but ROADMAP.md has no ### %s. heading", doc, m[1], m[2], m[1])
			case m[2] != "" && !strings.Contains(item, "("+m[2]+")"):
				t.Errorf("%s cites ROADMAP item %s%s, but item %s has no (%s)", doc, m[1], m[2], m[1], m[2])
			}
		}
	}
	if cites == 0 {
		t.Fatal("no ROADMAP item citations found: the check is looking at the wrong files")
	}
}

// TestDocsCiteOnlyDesignSectionsThatExist holds every "DESIGN.md §N"
// and "DESIGN §N" of the program's Go files, the CI workflow, the
// verify guide and ROADMAP.md to DESIGN.md: N, and each §M of a list
// that follows it, must be the number of a "## §N" heading there. A
// renumbered or merged section then cannot leave a stale pointer
// behind.
func TestDocsCiteOnlyDesignSectionsThatExist(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range sectionHeading.FindAllStringSubmatch(string(src), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no ## §N headings: the check is looking at the wrong file")
	}

	docs := append(goFiles(t), ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md", "ROADMAP.md")
	cites := 0
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cite := range sectionCite.FindAllString(string(src), -1) {
			for _, m := range sectionNumber.FindAllStringSubmatch(cite, -1) {
				cites++
				if !sections[m[1]] {
					t.Errorf("%s cites DESIGN §%s (in %q), but DESIGN.md has no ## §%s heading", doc, m[1], cite, m[1])
				}
			}
		}
	}
	if cites == 0 {
		t.Fatal("no DESIGN section citations found: the check is looking at the wrong files")
	}
}

// TestDesignInventoriesEveryPackage holds DESIGN.md §2 to the tree:
// every directory under internal/ and cmd/ that holds non-test Go must
// appear there as a code span of its own, so a new package cannot ship
// without its line in the inventory.
func TestDesignInventoriesEveryPackage(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	inventory := inventorySection.FindString(string(src))
	if inventory == "" {
		t.Fatal("DESIGN.md has no ## §2 heading: the check is looking at the wrong file")
	}
	spans := map[string]bool{}
	for _, s := range inlineSpan.FindAllString(inventory, -1) {
		spans[strings.Trim(s, "`")] = true
	}

	pkgs := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			pkgs[filepath.ToSlash(filepath.Dir(p))] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("no package under internal/ or cmd/: the check is looking at the wrong tree")
	}
	for _, pkg := range slices.Sorted(maps.Keys(pkgs)) {
		if !spans[pkg] {
			t.Errorf("DESIGN.md §2 has no `%s`: give the package its row", pkg)
		}
	}
}

// TestEveryMainPackageRunsInCI holds every main package under cmd/ and
// examples/ to .github/workflows/ci.yml: some step's run: script must
// execute it, by `go run ./<dir>` or by naming, on a line other than
// its build, the binary a `go build -o <out>` of it wrote (an <out>
// ending in / is a directory, the binary in it named after the
// package's last element). A program CI only compiles can then not
// ship. internal/tools/abpairs and benchmark/ are outside this rule:
// abpairs drives the standing benchmark by hand, and benchmark/ is a
// module of its own whose tests benchmark-smoke runs.
func TestEveryMainPackageRunsInCI(t *testing.T) {
	var mains []string
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.PackageClauseOnly)
			if err != nil {
				return err
			}
			if f.Name.Name == "main" {
				mains = append(mains, filepath.ToSlash(filepath.Dir(p)))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(mains)
	mains = slices.Compact(mains)
	if len(mains) == 0 {
		t.Fatal("no main package under cmd/ or examples/: the check is looking at the wrong tree")
	}

	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string // every line of every run: script
	block := -1        // the indent of the run: key whose block is being read
	for _, l := range strings.Split(string(src), "\n") {
		if block >= 0 {
			if strings.TrimSpace(l) == "" || len(l)-len(strings.TrimLeft(l, " ")) > block {
				lines = append(lines, strings.TrimSpace(l))
				continue
			}
			block = -1
		}
		if m := runKey.FindStringSubmatch(l); m != nil {
			if strings.HasPrefix(m[2], "|") || strings.HasPrefix(m[2], ">") {
				block = len(m[1])
			} else {
				lines = append(lines, m[2])
			}
		}
	}

	matches := func(pattern, dir string) bool {
		pattern = strings.TrimPrefix(pattern, "./")
		if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
			return dir == prefix || strings.HasPrefix(dir, prefix+"/")
		}
		return dir == pattern
	}
	executed := map[string]bool{}
	built := map[string][]string{} // binary path → the package dirs built to it
	for _, l := range lines {
		for _, m := range goRun.FindAllStringSubmatch(l, -1) {
			executed[strings.TrimSuffix(m[1], "/")] = true
		}
		if m := goBuildOut.FindStringSubmatch(l); m != nil {
			out := strings.Trim(m[1], `"'`)
			for _, pkg := range strings.Fields(m[2]) {
				for _, dir := range mains {
					if !matches(pkg, dir) {
						continue
					}
					bin := out
					if strings.HasSuffix(out, "/") {
						bin = out + path.Base(dir)
					}
					built[bin] = append(built[bin], dir)
				}
			}
		}
	}
	for _, l := range lines {
		if goBuildOut.MatchString(l) {
			continue
		}
		for _, word := range strings.Fields(l) {
			for _, dir := range built[strings.Trim(word, `"'();&|`)] {
				executed[dir] = true
			}
		}
	}
	for _, dir := range mains {
		if !executed[dir] {
			t.Errorf("%s is a main package no ci.yml run: script executes: run it in CI or delete it", dir)
		}
	}
}
