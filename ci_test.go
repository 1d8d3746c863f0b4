package parcolor

import (
	"os"
	"strings"
	"testing"
)

// TestMakefileMatchesWorkflow pins the CI contract: the fmt/vet/build/
// test/race/flake recipe lines of the Makefile `ci` target must be
// byte-for-byte the run: lines of the workflow's `test` job, so local
// `make ci` and GitHub CI can never drift apart. Makefile recipes
// escape `$` as `$$`; that unescaping is the only transformation
// applied before comparing.
func TestMakefileMatchesWorkflow(t *testing.T) {
	mk := makefileRecipes(t, "Makefile")
	wf := workflowRunLines(t, ".github/workflows/ci.yml", "test:")

	order := []string{"fmt", "vet", "build", "test", "race", "flake"}
	if len(wf) != len(order) {
		t.Fatalf("workflow test job has %d run lines %v, want %d (one per ci step %v)",
			len(wf), wf, len(order), order)
	}
	for i, target := range order {
		recipe, ok := mk[target]
		if !ok {
			t.Fatalf("Makefile has no %q target", target)
		}
		if recipe != wf[i] {
			t.Errorf("step %q drifted:\n  Makefile: %q\n  workflow: %q", target, recipe, wf[i])
		}
	}
}

// TestWorkflowParses is the dry-parse gate on ci.yml: every step of
// every job either runs a command or uses an action, indentation is
// space-only, and the jobs the repo's docs reference exist.
func TestWorkflowParses(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"name: CI", "on:", "jobs:", "test:", "bench-smoke:", "loadtest:", "crash-recovery:", "cluster-smoke:", "colordbench:"} {
		if !strings.Contains(text, want) {
			t.Errorf("ci.yml missing %q", want)
		}
	}
	steps, runs, usess := 0, 0, 0
	for i, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "\t") {
			t.Errorf("ci.yml line %d contains a tab (YAML forbids tab indentation)", i+1)
		}
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "- name:"), strings.HasPrefix(trimmed, "- uses:"):
			steps++
			if strings.HasPrefix(trimmed, "- uses:") {
				usess++
			}
		case strings.HasPrefix(trimmed, "run:"), trimmed == "run: |":
			runs++
		}
	}
	if runs == 0 || usess == 0 || steps < runs {
		t.Fatalf("ci.yml structure implausible: %d steps, %d run lines, %d uses", steps, runs, usess)
	}
}

// makefileRecipes returns the first recipe line of every Makefile
// target, with `$$` unescaped to `$`.
func makefileRecipes(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var target string
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "\t"):
			if target != "" {
				if _, seen := out[target]; !seen {
					out[target] = strings.ReplaceAll(strings.TrimPrefix(line, "\t"), "$$", "$")
				}
			}
		case strings.Contains(line, ":") && !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "."):
			target = strings.TrimSpace(strings.SplitN(line, ":", 2)[0])
		}
	}
	return out
}

// workflowRunLines extracts, in order, the single-line run: values of
// one job in a workflow file (from the job key to the next top-level
// job, i.e. the next 2-space-indented key).
func workflowRunLines(t *testing.T, path, job string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var (
		out   []string
		inJob bool
	)
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") && strings.HasSuffix(strings.TrimSpace(line), ":") {
			inJob = strings.TrimSpace(line) == job
			continue
		}
		if !inJob {
			continue
		}
		trimmed := strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(trimmed, "run: "); ok && rest != "|" {
			out = append(out, rest)
		}
	}
	return out
}
