package abndp

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// flagDef matches a flag definition: flag.String("name", ... or
	// fs.IntVar(&v, "name", ...
	flagDef = regexp.MustCompile(`\b(?:flag|fs)\.[A-Z]\w*\(\s*(?:&\w+,\s*)?"([^"]+)"`)
	// docCmd matches a word naming a command: abndpsim, ./cmd/abndpsim,
	// /tmp/abndpserve.
	docCmd  = regexp.MustCompile(`(?:^|/)(abndp[a-z]+)$`)
	docFlag = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	fence   = regexp.MustCompile("(?m)^\\s*```")
	span    = regexp.MustCompile("`([^`]+)`")
)

// TestDocumentedFlagsExist checks that every -flag written after an abndp*
// command, in a code block or an inline code span of the user-facing docs,
// is defined by that command's cmd/<name> package.
func TestDocumentedFlagsExist(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
	defined := map[string]map[string]bool{}
	flagsOf := func(cmd string) map[string]bool {
		if fl, ok := defined[cmd]; ok {
			return fl
		}
		srcs, _ := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
		var fl map[string]bool
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if fl == nil {
				fl = map[string]bool{}
			}
			for _, m := range flagDef.FindAllStringSubmatch(string(data), -1) {
				fl[m[1]] = true
			}
		}
		defined[cmd] = fl
		return fl
	}
	checked := 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, snippet := range codeSnippets(string(data)) {
			for _, words := range shellCommands(snippet) {
				cmd := ""
				for _, w := range words {
					if m := docCmd.FindStringSubmatch(w); m != nil {
						cmd = m[1]
						if flagsOf(cmd) == nil {
							t.Errorf("%s: %q names a command with no cmd/%s package", doc, snippet, cmd)
						}
						continue
					}
					m := docFlag.FindStringSubmatch(w)
					if cmd == "" || m == nil || flagsOf(cmd) == nil {
						continue
					}
					checked++
					if !flagsOf(cmd)[m[1]] {
						t.Errorf("%s: %q: %s defines no -%s", doc, snippet, cmd, m[1])
					}
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d documented flags; the doc scan is broken", checked)
	}
}

// codeSnippets returns the lines of a markdown file's fenced code blocks,
// with backslash continuations joined, and its inline code spans.
func codeSnippets(md string) []string {
	var out []string
	for i, part := range fence.Split(md, -1) {
		if i%2 == 1 { // inside a fence; the first line is the info string
			_, body, _ := strings.Cut(part, "\n")
			out = append(out, strings.Split(strings.ReplaceAll(body, "\\\n", " "), "\n")...)
			continue
		}
		for _, para := range strings.Split(part, "\n\n") {
			for _, m := range span.FindAllStringSubmatch(strings.ReplaceAll(para, "\n", " "), -1) {
				out = append(out, m[1])
			}
		}
	}
	return out
}

// shellCommands splits a shell line into its simple commands' words: it
// breaks at |, &, ;, <, >, ( and ) outside quotes, and stops at a comment.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var words []string
	var word strings.Builder
	var quote rune
	endWord := func() {
		if word.Len() > 0 {
			words = append(words, word.String())
			word.Reset()
		}
	}
	endCmd := func() {
		endWord()
		if len(words) > 0 {
			cmds = append(cmds, words)
			words = nil
		}
	}
	for _, c := range line {
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
			word.WriteRune(c)
		case c == '\'' || c == '"':
			quote = c
			word.WriteRune(c)
		case c == ' ' || c == '\t':
			endWord()
		case strings.ContainsRune("|&;<>()", c):
			endCmd()
		case c == '#' && word.Len() == 0:
			endCmd()
			return cmds
		default:
			word.WriteRune(c)
		}
	}
	endCmd()
	return cmds
}
