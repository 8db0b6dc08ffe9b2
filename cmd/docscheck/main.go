// Command docscheck is the documentation linter `make docs-check` (and CI)
// runs: it fails the build when the documentation map drifts from the
// code it maps.
//
// Three checks:
//
//   - Godoc coverage: every package under internal/ must open with a
//     `// Package <name>` doc comment, and every command under cmd/ with a
//     `// Command <name>` comment, in at least one of its .go files.
//   - Markdown links: every relative link in README.md, the root *.md
//     files, and docs/*.md must resolve to an existing file or directory
//     (http/https/mailto and pure #anchor links are skipped; a #fragment
//     on a relative link is checked against the target file's existence
//     only).
//   - Metrics reference: docs/METRICS.md must byte-match a fresh
//     `go run ./cmd/metricsdoc` generation, which itself fails when a
//     registered series is missing from the internal/metricnames catalog
//     or vice versa.
//
// Usage:
//
//	docscheck [-root <repo root>]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/metricnames"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()
	problems := check(*root)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// check runs every lint against the tree at root and returns one message
// per problem, sorted for deterministic output.
func check(root string) []string {
	var problems []string
	problems = append(problems, checkPackageDocs(root, "internal", "Package")...)
	problems = append(problems, checkPackageDocs(root, "cmd", "Command")...)
	problems = append(problems, checkMarkdownLinks(root)...)
	problems = append(problems, checkMetricsDoc(root)...)
	sort.Strings(problems)
	return problems
}

// checkPackageDocs requires each directory under dir to carry a
// `// <word> <dirname>` doc comment in at least one .go file.
func checkPackageDocs(root, dir, word string) []string {
	entries, err := os.ReadDir(filepath.Join(root, dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	var problems []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkgDir := filepath.Join(root, dir, e.Name())
		goFiles, err := filepath.Glob(filepath.Join(pkgDir, "*.go"))
		if err != nil || len(goFiles) == 0 {
			continue
		}
		marker := fmt.Sprintf("// %s %s", word, e.Name())
		found := false
		for _, gf := range goFiles {
			raw, err := os.ReadFile(gf)
			if err != nil {
				continue
			}
			for _, line := range strings.Split(string(raw), "\n") {
				if line == marker || strings.HasPrefix(line, marker+" ") {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf(
				"%s/%s: no doc comment starting %q in any .go file", dir, e.Name(), marker))
		}
	}
	return problems
}

// linkRe matches inline markdown links [text](target). Reference-style
// links and autolinks are rare in this repo and out of scope.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks verifies every relative link in the repo's top-level
// and docs/ markdown resolves to an existing path.
func checkMarkdownLinks(root string) []string {
	var files []string
	for _, pat := range []string{"*.md", filepath.Join("docs", "*.md")} {
		m, err := filepath.Glob(filepath.Join(root, pat))
		if err == nil {
			files = append(files, m...)
		}
	}
	var problems []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", f, err))
			continue
		}
		rel, _ := filepath.Rel(root, f)
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if skipLink(target) {
					continue
				}
				// A fragment on a relative link: check the file part only.
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target = target[:idx]
					if target == "" {
						continue
					}
				}
				resolved := filepath.Join(filepath.Dir(f), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf(
						"%s:%d: broken link %q", rel, i+1, m[1]))
				}
			}
		}
	}
	return problems
}

// skipLink reports whether a link target is out of scope for the
// existence check (external URLs, mail, pure anchors).
func skipLink(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// checkMetricsDoc regenerates the metrics reference and byte-compares it
// with the committed docs/METRICS.md, so both undocumented registrations
// (Generate fails) and a stale committed file fail the lint.
func checkMetricsDoc(root string) []string {
	want, err := metricnames.Generate(root)
	if err != nil {
		return []string{fmt.Sprintf("docs/METRICS.md: %v", err)}
	}
	path := filepath.Join(root, "docs", "METRICS.md")
	got, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("docs/METRICS.md: %v (run `go run ./cmd/metricsdoc`)", err)}
	}
	if !bytes.Equal(got, want) {
		return []string{"docs/METRICS.md is stale: run `go run ./cmd/metricsdoc` and commit the result"}
	}
	return nil
}
