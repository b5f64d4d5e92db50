package fleetio

import (
	"io/fs"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// docPointer is a quoted section name right after one of the reference
// documents' names, as in docs/PERFORMANCE.md "Batched RL kernels": a
// comma and spaces or a line break (with a Go comment's slashes) stand
// between them, and the name may wrap onto the next line.
var docPointer = regexp.MustCompile(`(PERFORMANCE|OBSERVABILITY|WORKLOADS)\.md,?\s(?:\s|//)*"([^"]+)"`)

// TestDocPointersResolve checks that every section a pointer names is a
// heading of the document it names, so removing or renaming a section
// fails here and not in a reader's search. It reads the Go files and the
// documents that describe the code as it is (README.md, DESIGN.md,
// EXPERIMENTS.md, docs/*.md and the verify skill); CHANGES.md is history,
// and bench/ is the benchmark's own tree.
func TestDocPointersResolve(t *testing.T) {
	headings := map[string]map[string]bool{}
	for _, doc := range []string{"PERFORMANCE", "OBSERVABILITY", "WORKLOADS"} {
		data, err := os.ReadFile("docs/" + doc + ".md")
		if err != nil {
			t.Fatal(err)
		}
		headings[doc] = map[string]bool{}
		for _, line := range strings.Split(string(data), "\n") {
			if h := strings.TrimLeft(line, "#"); h != line && strings.HasPrefix(h, " ") {
				h = strings.TrimSpace(h)
				headings[doc][h] = true
				// A trailing parenthetical is a gloss, not the name:
				// "Trainer JSONL schema (`fleettrain -metrics`)".
				if i := strings.LastIndex(h, " ("); i > 0 && strings.HasSuffix(h, ")") {
					headings[doc][h[:i]] = true
				}
			}
		}
	}
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	err := fs.WalkDir(os.DirFS("."), ".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || file == "bench") {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(file, ".go") || path.Dir(file) == "docs" && strings.HasSuffix(file, ".md") {
			files = append(files, file)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wrap := regexp.MustCompile(`\s*\n[\s/]*`)
	pointers := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		for _, m := range docPointer.FindAllStringSubmatchIndex(src, -1) {
			doc, name := src[m[2]:m[3]], wrap.ReplaceAllString(src[m[4]:m[5]], " ")
			pointers++
			if !headings[doc][name] {
				line := strings.Count(src[:m[0]], "\n") + 1
				t.Errorf("%s:%d: %s.md has no section %q", file, line, doc, name)
			}
		}
	}
	if pointers == 0 {
		t.Error("no pointer into a reference document found; the scan reads nothing")
	}
}
