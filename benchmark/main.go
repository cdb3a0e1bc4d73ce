// Command benchmark is the repository's full-stack benchmark: it builds
// cmd/parafiled and cmd/parafilemd from the tree, starts a fixed
// topology of them as child processes, drives one workload from a
// single closed-loop generator process, verifies the bytes, and prints
// every metric by name with its unit. See README.md.
//
// Usage:
//
//	go run -C benchmark . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|both] [-short] [-out FILE]
//	go run -C benchmark . -compare A.json B.json
//
// BENCHMARK.json runs it through run.sh, which keeps every build and
// run artefact under .bench_build/ in the checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	workload := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 20, "timed window per pass in seconds, split evenly into the workload's two phases")
	trace := flag.String("trace", "both", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; both")
	short := flag.Bool("short", false, "smoke run: 1 s windows, one set-up")
	out := flag.String("out", "", "also write the results as JSON to this file (the input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: -compare A.json B.json")
	root := flag.String("root", "", "repository root (default: found upwards from the working directory)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		return 2
	}
	opts := runOptions{seed: *seed, window: time.Duration(*seconds) * time.Second, setups: setupRepeats}
	switch *trace {
	case "0":
		opts.untraced = true
	case "1":
		opts.traced = true
	case "both":
		opts.untraced, opts.traced = true, true
	default:
		fmt.Fprintf(os.Stderr, "-trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if *short {
		opts.window, opts.setups = shortWindow, 1
	}
	defs := workloads
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	repo, err := findRoot(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Children live in their own process groups, so a signal to this
	// process does not reach them. A signal cancels ctx instead: the run
	// unwinds and runWorkload's deferred topology.stop drains them, as
	// it does on return and on a panic of this goroutine. Pdeathsig
	// covers the exits that run no defers.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	bins, err := buildDaemons(repo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	opts.bins = bins
	opts.tmp = filepath.Join(repo, ".bench_build", "tmp")
	// A run that was SIGKILLed could not remove its data directories;
	// runs in one checkout are sequential, so whatever is here is stale.
	if err := os.RemoveAll(opts.tmp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printMachine(os.Stdout)

	results := make(map[string]*result)
	for _, def := range defs {
		res, err := runWorkload(ctx, def, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", def.name, err)
			return 1
		}
		results[def.name] = res
		res.print(os.Stdout)
		if !res.Correct {
			code = 1
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return code
}

// findRoot locates the parafile module root: the given directory, or
// the nearest ancestor of the working directory whose go.mod declares
// module parafile.
func findRoot(given string) (string, error) {
	if given != "" {
		return filepath.Abs(given)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module parafile\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module parafile above the working directory; pass -root")
		}
		dir = parent
	}
}
