package risc1_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"risc1"
)

// runTool invokes one of the repository's commands via `go run` and returns
// its stdout (diagnostics and traces go to stderr).
func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// runToolErr is runTool for invocations expected to fail: it returns stdout,
// stderr and the exit code instead of failing the test.
func runToolErr(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("go run %v: %v\n%s", args, err, errBuf.String())
		}
		code = ee.ExitCode()
	}
	return string(out), errBuf.String(), code
}

// TestRiscbenchBadExperiment pins the CLI contract: an unknown experiment ID
// exits nonzero and names the valid ones.
func TestRiscbenchBadExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	_, stderr, code := runToolErr(t, "./cmd/riscbench", "-exp", "BOGUS")
	if code == 0 {
		t.Fatal("riscbench -exp BOGUS exited 0")
	}
	if !strings.Contains(stderr, "E1") || !strings.Contains(stderr, "E10") {
		t.Fatalf("error does not list valid IDs:\n%s", stderr)
	}
}

// TestRiscbenchInjectDegrades runs one experiment with a fault-injected
// benchmark: the table must still render (ERR cell for the victim, real rows
// elsewhere) and the process must exit nonzero reporting the failure.
func TestRiscbenchInjectDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	stdout, stderr, code := runToolErr(t, "./cmd/riscbench", "-exp", "E4", "-inject", "hanoi")
	if code == 0 {
		t.Fatal("riscbench with an injected fault exited 0")
	}
	if !strings.Contains(stdout, "ERR") || !strings.Contains(stdout, "sieve") {
		t.Fatalf("degraded table wrong:\n%s", stdout)
	}
	if !strings.Contains(stderr, "hanoi") {
		t.Fatalf("failure summary missing the victim:\n%s", stderr)
	}
}

// TestRiscbenchCPUProfile checks that -cpuprofile writes a pprof profile
// (gzip-compressed) of a clean run and of one that exits nonzero.
func TestRiscbenchCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	if out := runTool(t, "./cmd/riscbench", "-exp", "E11", "-cpuprofile", prof); !strings.Contains(out, "E11") {
		t.Fatalf("riscbench -cpuprofile printed %q", out)
	}
	checkProfile := func() {
		t.Helper()
		if b, err := os.ReadFile(prof); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Fatalf("riscbench -cpuprofile wrote %d bytes (%v), want a gzip-compressed profile", len(b), err)
		}
	}
	checkProfile()
	if err := os.Remove(prof); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runToolErr(t, "./cmd/riscbench", "-exp", "E4", "-inject", "hanoi", "-cpuprofile", prof); code == 0 {
		t.Fatal("riscbench with an injected fault exited 0")
	}
	checkProfile()
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	dir := t.TempDir()

	// ccm: compile a Cm program for each target.
	cm := filepath.Join(dir, "p.cm")
	if err := os.WriteFile(cm, []byte(`
int twice(int x) { return x + x; }
int main() { putint(twice(21)); return 0; }`), 0o644); err != nil {
		t.Fatal(err)
	}
	asmText := runTool(t, "./cmd/ccm", "-target", "windowed", cm)
	if !strings.Contains(asmText, "twice:") {
		t.Fatalf("ccm output missing function label:\n%s", asmText)
	}
	if out := runTool(t, "./cmd/ccm", "-target", "cisc", cm); !strings.Contains(out, ".mask") {
		t.Fatalf("cisc output missing mask:\n%s", out)
	}

	// riscrun on the Cm source, all four targets.
	for _, target := range []string{"windowed", "flat", "cisc", "pipelined"} {
		out := runTool(t, "./cmd/riscrun", "-target", target, "-stats", cm)
		if !strings.HasPrefix(out, "42\n") {
			t.Fatalf("riscrun -target %s printed %q", target, out)
		}
		if !strings.Contains(out, "instructions:") {
			t.Fatalf("riscrun -stats missing statistics:\n%s", out)
		}
		if target == "pipelined" && !strings.Contains(out, "pipeline (delayed): CPI") {
			t.Fatalf("riscrun -target pipelined -stats missing pipeline block:\n%s", out)
		}
	}

	// The pipelined target's squash policy must cost cycles, never change
	// program output.
	sqOut := runTool(t, "./cmd/riscrun", "-target", "pipelined", "-policy", "squash", "-stats", cm)
	if !strings.HasPrefix(sqOut, "42\n") || !strings.Contains(sqOut, "pipeline (squash): CPI") {
		t.Fatalf("riscrun -policy squash printed:\n%s", sqOut)
	}
	if _, stderr, code := runToolErr(t, "./cmd/riscrun", "-target", "pipelined", "-policy", "oracle", cm); code == 0 {
		t.Fatal("riscrun accepted an unknown -policy")
	} else if !strings.Contains(stderr, "policy") {
		t.Fatalf("unknown policy error: %s", stderr)
	}
	if _, _, code := runToolErr(t, "./cmd/riscrun", "-engine", "warp", cm); code == 0 {
		t.Fatal("riscrun accepted an unknown -engine")
	}

	// -cpuprofile writes a pprof profile of the run (gzip-compressed).
	prof := filepath.Join(dir, "cpu.pprof")
	if out := runTool(t, "./cmd/riscrun", "-target", "cisc", "-cpuprofile", prof, cm); !strings.HasPrefix(out, "42\n") {
		t.Fatalf("riscrun -cpuprofile printed %q", out)
	}
	if b, err := os.ReadFile(prof); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("riscrun -cpuprofile wrote %d bytes (%v), want a gzip-compressed profile", len(b), err)
	}

	// riscasm: assemble the compiler's output; then riscdis round trip.
	s := filepath.Join(dir, "p.s")
	if err := os.WriteFile(s, []byte(asmText), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := runTool(t, "./cmd/riscasm", s)
	if !strings.Contains(listing, "callr") {
		t.Fatalf("listing missing call:\n%s", listing)
	}
	bin := filepath.Join(dir, "p.bin")
	runTool(t, "./cmd/riscasm", "-o", bin, s)
	dis := runTool(t, "./cmd/riscdis", bin)
	if !strings.Contains(dis, "ret r25,#8") {
		t.Fatalf("riscdis output missing epilogue:\n%s", dis)
	}

	// riscrun on assembly with a trace.
	out := runTool(t, "./cmd/riscrun", "-trace", "3", "-stats", s)
	if !strings.HasPrefix(out, "42\n") {
		t.Fatalf("riscrun on .s printed %q", out)
	}

	// riscbench: one static experiment end to end, and the pipelined
	// target shorthand for the measured CPI table.
	bench := runTool(t, "./cmd/riscbench", "-exp", "E2")
	if !strings.Contains(bench, "RISC I (this repo)") {
		t.Fatalf("riscbench E2 output:\n%s", bench)
	}
	pipe := runTool(t, "./cmd/riscbench", "-target", "pipelined")
	for _, want := range []string{"E11.", "CPI dly", "(total)"} {
		if !strings.Contains(pipe, want) {
			t.Fatalf("riscbench -target pipelined missing %q:\n%s", want, pipe)
		}
	}
	if _, _, code := runToolErr(t, "./cmd/riscbench", "-target", "cisc"); code == 0 {
		t.Fatal("riscbench accepted -target cisc")
	}
}

// TestRisclintCLI drives the analyzer CLI end to end: clean source passes
// silently, a hazard is reported with its source line, -Werror turns the
// warning into exit 1, and -json emits a machine-readable report.
func TestRisclintCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	dir := t.TempDir()

	clean := filepath.Join(dir, "clean.cm")
	if err := os.WriteFile(clean, []byte("int main() { putint(42); return 0; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runTool(t, "./cmd/risclint", clean); out != "" {
		t.Errorf("clean program produced output:\n%s", out)
	}

	// A store in a delayed call's slot runs in the callee's window.
	hazard := filepath.Join(dir, "hazard.s")
	src := "main:\n callr r25,f\n stl r9,(r0)#-252\n ret r25,#8\n nop\nf:\n ret r25,#0\n nop\n"
	if err := os.WriteFile(hazard, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, "./cmd/risclint", hazard) // warning only: exit 0
	if !strings.Contains(out, "hazard.s:3") || !strings.Contains(out, "[delay-slot]") {
		t.Errorf("warning not reported with file:line and pass:\n%s", out)
	}
	stdout, _, code := runToolErr(t, "./cmd/risclint", "-Werror", hazard)
	if code != 1 {
		t.Errorf("-Werror on a warning: exit %d, want 1\n%s", code, stdout)
	}

	jsonOut := runTool(t, "./cmd/risclint", "-json", hazard)
	var reports []struct {
		File        string `json:"file"`
		Diagnostics []struct {
			Severity string `json:"severity"`
			Pass     string `json:"pass"`
			Line     int    `json:"line"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &reports); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, jsonOut)
	}
	if len(reports) != 1 || len(reports[0].Diagnostics) != 1 {
		t.Fatalf("unexpected report shape: %s", jsonOut)
	}
	if d := reports[0].Diagnostics[0]; d.Severity != "warning" || d.Pass != "delay-slot" || d.Line != 3 {
		t.Errorf("JSON diagnostic = %+v", d)
	}

	// Source that does not assemble is exit 2, not a finding. `go run`
	// reports the child's code on stderr while exiting 1 itself.
	broken := filepath.Join(dir, "broken.s")
	if err := os.WriteFile(broken, []byte("main: bogus r1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runToolErr(t, "./cmd/risclint", broken)
	if code == 0 || !strings.Contains(stderr, "exit status 2") ||
		!strings.Contains(stderr, "unknown mnemonic") {
		t.Errorf("unassemblable source: exit %d\n%s", code, stderr)
	}
}

// TestRisclintSMPTarget drives the concurrency passes from the CLI: -target
// smp lints Cm for the windowed machine with the SMP passes forced, the racy
// corpus program is flagged with its Cm source line, and -Werror gates it.
func TestRisclintSMPTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	racy := filepath.Join("internal", "lint", "testdata", "smp", "race_counter.cm")
	out := runTool(t, "./cmd/risclint", "-target", "smp", racy) // warning only: exit 0
	if !strings.Contains(out, "[smp-race]") {
		t.Errorf("racy corpus program not flagged:\n%s", out)
	}
	if !strings.Contains(out, "race_counter.cm:11") {
		t.Errorf("race not attributed to the Cm statement:\n%s", out)
	}
	stdout, _, code := runToolErr(t, "./cmd/risclint", "-target", "smp", "-Werror", racy)
	if code != 1 {
		t.Errorf("-Werror on the racy corpus: exit %d, want 1\n%s", code, stdout)
	}

	// A sequential program lints clean under -target smp: the forced passes
	// change eagerness, not verdicts.
	clean := filepath.Join(t.TempDir(), "clean.cm")
	if err := os.WriteFile(clean, []byte("int main() { putint(42); return 0; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runTool(t, "./cmd/risclint", "-target", "smp", clean); out != "" {
		t.Errorf("clean program produced output under -target smp:\n%s", out)
	}
}

// TestRiscrunRaceFlag drives the dynamic detector from the CLI: the racy
// corpus program exits 1 with the races on stderr, the clean parallel
// kernel exits 0 with its real answer, and .s sources are rejected.
func TestRiscrunRaceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	racy := filepath.Join("internal", "lint", "testdata", "smp", "race_counter.cm")
	_, stderr, code := runToolErr(t, "./cmd/riscrun", "-race", "-cores", "4", racy)
	if code != 1 {
		t.Errorf("riscrun -race on the racy corpus: exit %d, want 1\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "data race(s) detected") {
		t.Errorf("race summary missing from stderr:\n%s", stderr)
	}

	clean := filepath.Join(t.TempDir(), "clean.cm")
	src := `
int g;
void w(int k) { lock(0); g = g + k; unlock(0); }
int main() {
  int h1; int h2;
  h1 = spawn(w, 1); h2 = spawn(w, 2);
  join(h1); join(h2);
  putint(g);
  return 0;
}`
	if err := os.WriteFile(clean, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runTool(t, "./cmd/riscrun", "-race", "-cores", "4", clean); out != "3\n" {
		t.Errorf("clean run under -race printed %q, want \"3\\n\"", out)
	}

	s := filepath.Join(t.TempDir(), "p.s")
	if err := os.WriteFile(s, []byte("main: ret r25,#8\n nop\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runToolErr(t, "./cmd/riscrun", "-race", s); code == 0 {
		t.Error("riscrun -race accepted a .s source")
	}
}

// TestRiscrunRejectsFewWindows checks that a register file too small to
// window is a usage error (exit 2), not a panic, and that the smallest legal
// one runs.
func TestRiscrunRejectsFewWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	// go run reports every failure as exit 1, so build the binary to see
	// its own status.
	dir := t.TempDir()
	bin := filepath.Join(dir, "riscrun")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/riscrun").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	s := filepath.Join(dir, "p.s")
	if err := os.WriteFile(s, []byte("main: ret r25,#8\n nop\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(w string) (string, int) {
		var stderr strings.Builder
		cmd := exec.Command(bin, "-windows", w, s)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatal(err)
		}
		return stderr.String(), cmd.ProcessState.ExitCode()
	}
	for _, w := range []string{"1", "2", "-1"} {
		stderr, code := run(w)
		if code != 2 || strings.Contains(stderr, "panic") || !strings.Contains(stderr, "at least 3 windows") {
			t.Errorf("riscrun -windows %s: exit %d, want a usage error with exit 2\n%s", w, code, stderr)
		}
	}
	if stderr, code := run("3"); code != 0 {
		t.Errorf("riscrun -windows 3: exit %d\n%s", code, stderr)
	}
}

// TestCompilerLintFlags checks the -lint pass-through on ccm and riscasm:
// ccm surfaces the analyzer's recursion info on stderr without failing the
// compile, and riscasm fails on an error-severity hazard.
func TestCompilerLintFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	dir := t.TempDir()

	cm := filepath.Join(dir, "rec.cm")
	rec := "int f(int n) { if (n < 2) return n; return f(n - 1); }\nint main() { putint(f(5)); return 0; }"
	if err := os.WriteFile(cm, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/ccm", "-lint", cm)
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ccm -lint on info-only source failed: %v\n%s", err, errBuf.String())
	}
	if !strings.Contains(string(out), "f:") {
		t.Errorf("assembly output suppressed by -lint:\n%s", out)
	}
	if !strings.Contains(errBuf.String(), "ccm: lint:") || !strings.Contains(errBuf.String(), "recursive") {
		t.Errorf("recursion info missing from stderr:\n%s", errBuf.String())
	}

	// A transfer in a delay slot is an error: riscasm -lint must exit 1.
	bad := filepath.Join(dir, "bad.s")
	src := "main:\n jmpr alw,main\n jmpr alw,main\n"
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runToolErr(t, "./cmd/riscasm", "-lint", bad)
	if code != 1 {
		t.Errorf("riscasm -lint on an error: exit %d, want 1\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "riscasm: lint:") {
		t.Errorf("lint finding missing from stderr:\n%s", stderr)
	}
}

// TestRiscdSmoke boots the riscd binary, hits /healthz and one /v1/run, and
// checks SIGINT produces a clean, graceful exit. The binary is built (not
// `go run`) so the signal reaches the server process directly.
func TestRiscdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	bin := filepath.Join(t.TempDir(), "riscd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/riscd").CombinedOutput(); err != nil {
		t.Fatalf("go build riscd: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// riscd logs "listening on <addr>" once the socket is bound.
	var addr string
	var logTail strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		logTail.WriteString(line + "\n")
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		t.Fatalf("riscd never reported its address:\n%s", logTail.String())
	}
	go func() { // keep draining so the child never blocks on stderr
		for sc.Scan() {
		}
	}()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	resp, err := http.Post("http://"+addr+"/v1/run", "application/json",
		strings.NewReader(`{"source":"int main() { putint(6 * 7); return 0; }"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"console":"42"`) {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "riscd_requests_total") {
		t.Fatalf("metrics: %d\n%s", code, body)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("riscd did not exit cleanly on SIGINT: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("riscd did not shut down within 15s of SIGINT")
	}
}

// TestRiscrunProfilePinned pins riscrun's -profile JSON: a Cm loop on the
// auto engine, the same loop under -engine step and on cisc (empty blocks,
// null n-grams), and an assembly loop, which runs on a hand-built Machine
// rather than through RunImage.
func TestRiscrunProfilePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile the tools")
	}
	dir := t.TempDir()
	cm := filepath.Join(dir, "loop.cm")
	if err := os.WriteFile(cm, []byte(`
int a[16];
int main() {
    int i; int s;
    s = 0; i = 0;
    while (i < 2000) { a[i & 15] = a[i & 15] + i; s = s + a[i & 15]; i = i + 1; }
    putint(s);
    return 0;
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := filepath.Join(dir, "loop.s")
	if err := os.WriteFile(s, []byte(`main: add r0,#0,r1
 add r0,#0,r2
loop: add r2,r1,r2
 add r1,#1,r1
 cmp r1,#500
 jmpr lt,loop
 nop
 stl r2,(r0)#-252
 ret r25,#8
 nop
`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, args := range [][]string{
		{"loop.cm"},
		{"-engine", "step", "loop.cm"},
		{"-target", "cisc", "loop.cm"},
		{"loop.s"},
	} {
		fmt.Fprintf(&b, "== riscrun -profile - %s ==\n", strings.Join(args, " "))
		args[len(args)-1] = filepath.Join(dir, args[len(args)-1])
		b.WriteString(runTool(t, append([]string{"./cmd/riscrun", "-profile", "-"}, args...)...))
	}
	risc1.CheckGolden(t, "testdata/riscrun_profile.golden", b.String())
}
