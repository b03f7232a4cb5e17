package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/gasperleak"
)

// TestDocCommands: every `go run ./cmd/NAME` line of README.md and
// EXPERIMENTS.md names a command under cmd/, and every `go run
// ./cmd/leaksim` line parses with leaksim's flag set, names a registered
// scenario (or all) and sweeps a grid that parses, so the documents cannot
// drift from the commands they show.
func TestDocCommands(t *testing.T) {
	c, err := gasperleak.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range docCommands(string(data)) {
			name, rest, _ := strings.Cut(line, " ")
			if _, err := os.Stat(filepath.Join("..", name)); err != nil {
				t.Errorf("%s: go run ./cmd/%s: no such command", doc, line)
				continue
			}
			if name != "leaksim" {
				continue
			}
			args, err := shellWords(rest)
			var o options
			if err == nil {
				o, err = parse(args, io.Discard)
			}
			if err == nil && o.scenario != "all" {
				if _, ok := c.Lookup(o.scenario); !ok {
					err = fmt.Errorf("no scenario %q is registered", o.scenario)
				}
			}
			if err == nil && o.sweep != "" {
				_, err = gasperleak.ParseGrid(o.scenario, o.sweep)
			}
			if err != nil {
				t.Errorf("%s: go run ./cmd/%s: %v", doc, line, err)
			}
		}
	}
}

// docCommands returns what follows "go run ./cmd/" on each line of a
// document, with backslash continuations joined, up to the end of an
// inline code span.
func docCommands(doc string) []string {
	var cmds []string
	doc = strings.ReplaceAll(doc, "\\\n", " ")
	for _, line := range strings.Split(doc, "\n") {
		for {
			_, after, ok := strings.Cut(line, "go run ./cmd/")
			if !ok {
				break
			}
			cmd, _, _ := strings.Cut(after, "`")
			cmds = append(cmds, strings.TrimSpace(cmd))
			line = after
		}
	}
	return cmds
}

// shellWords splits a command line as a POSIX shell would for the
// arguments the documents show: words separated by blanks, single and
// double quotes grouping, and the line ending at a comment, a pipe, a
// redirect, a list separator or a background &.
func shellWords(s string) ([]string, error) {
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		case !inWord && strings.ContainsRune("#|&;<>", r):
			return words, nil
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if quote != 0 {
		return nil, errors.New("unterminated quote")
	}
	if inWord {
		words = append(words, word.String())
	}
	return words, nil
}
