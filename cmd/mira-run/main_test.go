package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mira/internal/vm"
)

const kernels = `double scale(double a, int n) {
	double s = 0.0;
	int i;
	for (i = 0; i < n; i++) {
		s = s + a;
	}
	return s;
}
int count(int n) {
	int i;
	int s = 0;
	for (i = 0; i < n; i++) {
		s = s + 2;
	}
	return s;
}
`

// runCmd runs the command on args and returns its exit code, stdout
// and stderr.
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func writeFile(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSingle runs one program: it prints the return value, the
// retired-instruction line and the profile, with no batch header.
func TestRunSingle(t *testing.T) {
	path := writeFile(t, t.TempDir(), "k.c", kernels)
	code, out, errOut := runCmd(t, "-fn", "scale", "-args", "f:1.5,100", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{
		"scale returned 150\n",
		"instructions retired: 609\n\n",
		"TAU-style profile on frankenstein (FP counters: true)\n",
		"Function                     Calls    TOT_INS(incl)  FP_INS(incl)   FP_INS(excl)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "====") {
		t.Errorf("a single program printed a batch header:\n%s", out)
	}
	if !strings.Contains(out, "\nscale ") {
		t.Errorf("profile has no scale row:\n%s", out)
	}
}

// TestRunBatchFailures runs a batch of a good file, a missing file and
// a file that fails to parse: the good file's profile still prints, each
// failure is named on stderr under its own header, and the run exits 1.
func TestRunBatchFailures(t *testing.T) {
	dir := t.TempDir()
	good := writeFile(t, dir, "good.c", kernels)
	missing := filepath.Join(dir, "missing.c")
	bad := writeFile(t, dir, "bad.c", "int f( {")
	code, out, errOut := runCmd(t, "-fn", "count", "-args", "7", good, missing, bad)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	for _, want := range []string{
		"==== " + good + " ====\ncount returned 14\ninstructions retired: 58\n",
		"TAU-style profile on frankenstein",
		"\n\n==== " + missing + " ====\n\n",
		"==== " + bad + " ====\n\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	for _, want := range []string{
		"mira-run: " + missing + ": open ",
		"mira-run: " + bad + ": core: parse: ",
	} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr lacks %q:\n%s", want, errOut)
		}
	}
	if strings.Contains(errOut, good) {
		t.Errorf("stderr names the good file:\n%s", errOut)
	}
}

// TestRunUsage pins the exit codes of a bad invocation: no file is a
// usage error, a bad -args value or an unknown entry function a failure.
func TestRunUsage(t *testing.T) {
	path := writeFile(t, t.TempDir(), "k.c", kernels)
	if code, _, _ := runCmd(t, "-fn", "count"); code != 2 {
		t.Errorf("no file: exit %d, want 2", code)
	}
	if code, _, errOut := runCmd(t, "-fn", "count", "-args", "seven", path); code != 1 || !strings.Contains(errOut, `"seven"`) {
		t.Errorf("bad -args: exit %d, stderr %q; want exit 1 naming the value", code, errOut)
	}
	if code, _, errOut := runCmd(t, "-fn", "nosuch", path); code != 1 || !strings.Contains(errOut, "nosuch") {
		t.Errorf("unknown entry: exit %d, stderr %q; want exit 1 naming it", code, errOut)
	}
}

// TestParseArgs pins the -args grammar: comma-separated integers or
// f:-prefixed doubles, surrounding spaces ignored, anything else an
// error.
func TestParseArgs(t *testing.T) {
	got, err := parseArgs(" 3, f:1.5,-7,f:-2e3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []vm.Value{vm.Int(3), vm.Float(1.5), vm.Int(-7), vm.Float(-2000)}
	if len(got) != len(want) {
		t.Fatalf("parseArgs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arg %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got, err := parseArgs(""); err != nil || got != nil {
		t.Errorf("parseArgs(\"\") = %v, %v; want no arguments", got, err)
	}
	for _, bad := range []string{"x", "1.5", "f:", "f:x", "3,,4", "0x10"} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("parseArgs(%q) accepted", bad)
		}
	}
}
