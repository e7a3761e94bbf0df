// Ccm is the Cm compiler driver: it compiles a Cm source file and prints
// the generated assembly for the chosen target machine.
//
// Usage:
//
//	ccm [-target windowed|flat|cisc|pipelined] [-noopt] [-widedata] [-lint] file.cm
//
// With -lint the compiled image is also run through the static analyzer
// (see docs/LINT.md); findings go to stderr and error-severity findings
// make the exit status 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"risc1"
)

func main() {
	target := flag.String("target", "windowed", "code generator: windowed, flat, cisc or pipelined")
	noopt := flag.Bool("noopt", false, "leave NOPs in delay slots (RISC targets)")
	wide := flag.Bool("widedata", false, "full 32-bit global addressing (RISC targets)")
	dis := flag.Bool("dis", false, "print the encoded listing instead of assembly source")
	lintFlag := flag.Bool("lint", false, "statically analyze the compiled image; findings on stderr")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccm [-target windowed|flat|cisc] file.cm")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	t, err := risc1.ParseTarget(*target)
	if err != nil {
		fatal(err)
	}
	var out string
	if *dis {
		out, err = risc1.CompileAndDisassemble(string(src), t)
	} else {
		out, err = risc1.CompileCm(string(src), t, risc1.CompileOptions{
			NoDelaySlotFill: *noopt, WideData: *wide,
		})
	}
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
	if *lintFlag {
		diags, err := risc1.LintCm(string(src), t, risc1.LintOptions{})
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "ccm: lint: %s\n", d)
		}
		if risc1.Count(diags, risc1.SevError) > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccm:", err)
	os.Exit(1)
}
