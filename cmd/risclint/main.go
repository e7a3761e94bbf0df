// Risclint statically analyzes RISC I (and CX) programs without running
// them: it builds a control-flow graph honoring the delayed-transfer
// semantics and reports delay-slot hazards, bad branch targets,
// register-window misuse, use-before-def reads, suspicious constant memory
// accesses, and unreachable code. See docs/LINT.md for the pass catalog.
//
// Usage:
//
//	risclint [-target windowed|flat|cisc|pipelined|smp] [-lang cm|asm] [-json] [-Werror] file...
//
// Cm sources are compiled for the target first; assembly sources are
// assembled. -target smp lints under the windowed convention with the
// concurrency passes (smp-race, smp-lock, smp-spawn) forced on — the
// right target for programs that spawn workers or take locks. With -json
// the findings are printed as one JSON array of {file, diagnostics}
// objects. The exit status is 1 when any file has an error-severity
// finding (with -Werror, warnings too), 2 when a file cannot be read,
// compiled, or assembled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"risc1"
)

func main() {
	target := flag.String("target", "windowed", "machine convention: windowed, flat, cisc, pipelined or smp")
	lang := flag.String("lang", "", "source language: cm or asm (default: by extension)")
	asJSON := flag.Bool("json", false, "print findings as JSON")
	werror := flag.Bool("Werror", false, "treat warnings as fatal")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: risclint [-target windowed|flat|cisc|smp] [-lang cm|asm] [-json] [-Werror] file...")
		os.Exit(2)
	}
	t, opts, err := parseTarget(*target)
	if err != nil {
		fatal(err)
	}

	type fileReport struct {
		File        string             `json:"file"`
		Diagnostics []risc1.Diagnostic `json:"diagnostics"`
	}
	var reports []fileReport
	gate := risc1.SevError
	if *werror {
		gate = risc1.SevWarning
	}
	failed := false
	for _, file := range flag.Args() {
		src, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		var diags []risc1.Diagnostic
		switch languageOf(*lang, file, string(src)) {
		case "cm":
			diags, err = risc1.LintCm(string(src), t, opts)
		default:
			diags, err = risc1.LintAssembly(string(src), t, opts)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", file, err))
		}
		if diags == nil {
			diags = []risc1.Diagnostic{} // JSON: [] rather than null
		}
		reports = append(reports, fileReport{File: file, Diagnostics: diags})
		if risc1.Count(diags, gate) > 0 {
			failed = true
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fatal(err)
		}
	} else {
		for _, r := range reports {
			for _, d := range r.Diagnostics {
				loc := r.File
				if d.Line > 0 {
					loc = fmt.Sprintf("%s:%d", r.File, d.Line)
				}
				fmt.Printf("%s: %s: %s [%s] (pc %#x", loc, d.Severity, d.Message, d.Pass, d.PC)
				if d.Disasm != "" {
					fmt.Printf(": %s", d.Disasm)
				}
				fmt.Println(")")
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// languageOf picks the source language: an explicit -lang wins, then the
// extension, then a content sniff for files named neither way.
func languageOf(flagLang, file, src string) string {
	if flagLang != "" {
		return flagLang
	}
	switch strings.ToLower(filepath.Ext(file)) {
	case ".cm", ".c":
		return "cm"
	case ".s", ".asm":
		return "asm"
	}
	if strings.Contains(src, "int main") {
		return "cm"
	}
	return "asm"
}

func parseTarget(s string) (risc1.Target, risc1.LintOptions, error) {
	if s == "smp" {
		// The windowed convention with the concurrency passes forced on.
		return risc1.RISCWindowed, risc1.LintOptions{SMP: true}, nil
	}
	t, err := risc1.ParseTarget(s)
	if err != nil {
		return 0, risc1.LintOptions{}, fmt.Errorf("%w, or smp", err)
	}
	return t, risc1.LintOptions{}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "risclint:", err)
	os.Exit(2)
}
