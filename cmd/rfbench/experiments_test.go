package main

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rfabric/internal/experiments"
)

// parseRun parses rfbench's run flags; the remaining arguments are the
// experiment names.
func parseRun(args []string) (experiments.Options, []string, error) {
	fs := flag.NewFlagSet("rfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	run := newRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return experiments.Options{}, nil, err
	}
	opt, err := run.options()
	return opt, fs.Args(), err
}

// TestEveryExperimentWritesATable runs every experiment "all" names at
// small sizes and renders it as the text output does.
func TestEveryExperimentWritesATable(t *testing.T) {
	opt, _, err := parseRun([]string{"-rows", "8000", "-sizes", "1", "-workers", "1,2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range allExperiments {
		result, _, err := runExperiment(name, opt)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		tw, ok := result.(tableWriter)
		if !ok {
			t.Errorf("%s: %T is not a tableWriter", name, result)
			continue
		}
		var b bytes.Buffer
		tw.WriteTable(&b)
		if b.Len() == 0 {
			t.Errorf("%s: empty table", name)
		}
	}
}

// Commands EXPERIMENTS.md names that TestExperimentsDocMatchesProgram
// reruns: at most docMaxRows rows and docMaxSizeMB MiB targets.
const (
	docMaxRows   = 96_000
	docMaxSizeMB = 16
)

var docCommand = regexp.MustCompile("`rfbench ([^`]*)`")

// TestExperimentsDocMatchesProgram reruns the commands EXPERIMENTS.md
// quotes output for. Each fenced block is checked against the last rfbench
// command named in the prose of its section: every line of the block must
// appear in the command's text output, in order ("..." lines elide). Larger
// commands are skipped and listed.
func TestExperimentsDocMatchesProgram(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("reruns the documented experiments; skipped with -short and -race")
	}
	f, err := os.Open("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	outputs := map[string][]string{} // command → output lines
	var cmd string                   // last runnable command in this section
	var block []string
	inFence, checked := false, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "```") {
			if inFence && cmd != "" {
				out, ok := outputs[cmd]
				if !ok {
					out = docOutput(t, cmd)
					outputs[cmd] = out
				}
				matchInOrder(t, cmd, block, out)
				checked++
			}
			inFence, block = !inFence, nil
			continue
		}
		if inFence {
			block = append(block, line)
			continue
		}
		if strings.HasPrefix(line, "#") {
			cmd = ""
		}
		for _, m := range docCommand.FindAllStringSubmatch(line, -1) {
			switch runnable, why := docRunnable(m[1]); {
			case runnable:
				cmd = m[1]
			case why != "":
				t.Logf("skipped: rfbench %s (%s)", m[1], why)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("EXPERIMENTS.md: no output block checked")
	}
	t.Logf("checked %d output blocks from %d commands", checked, len(outputs))
}

// docRunnable reports whether a documented command is an experiment run
// small enough to repeat; a too-large run comes back with the reason.
// Other commands (-audit, -serve, placeholders) are neither.
func docRunnable(args string) (bool, string) {
	fields := strings.Fields(args)
	for _, a := range fields {
		if a == "-paper-scale" {
			return false, "paper scale"
		}
	}
	opt, names, err := parseRun(fields)
	if err != nil || len(names) == 0 {
		return false, ""
	}
	for _, n := range names {
		if !slices.Contains(allExperiments, n) {
			return false, ""
		}
	}
	if opt.MicroRows > docMaxRows {
		return false, "more than " + strconv.Itoa(docMaxRows) + " rows"
	}
	for _, mb := range opt.Fig7TargetMB {
		if mb > docMaxSizeMB {
			return false, "targets over " + strconv.Itoa(docMaxSizeMB) + " MiB"
		}
	}
	return true, ""
}

func docOutput(t *testing.T, args string) []string {
	t.Helper()
	opt, names, err := parseRun(strings.Fields(args))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := writeText(&b, names, opt); err != nil {
		t.Fatalf("rfbench %s: %v", args, err)
	}
	return strings.Split(b.String(), "\n")
}

func matchInOrder(t *testing.T, cmd string, doc, out []string) {
	t.Helper()
	i := 0
	for _, want := range doc {
		want = strings.TrimRight(want, " ")
		if strings.TrimSpace(want) == "..." {
			continue
		}
		for i < len(out) && strings.TrimRight(out[i], " ") != want {
			i++
		}
		if i == len(out) {
			t.Errorf("rfbench %s: EXPERIMENTS.md line not in the output (in order):\n%s\noutput:\n%s",
				cmd, want, strings.Join(out, "\n"))
			return
		}
		i++
	}
}
