// Command redistbench regenerates the evaluation tables of §8.2 —
// Table 1 (write time breakdown at a compute node) and Table 2
// (scatter time at an I/O node) — on the simulated Clusterfile
// deployment, printing each value beside the paper's published number.
// With -json it instead runs the loopback-TCP throughput benchmark
// (the wire ablation — "streamed", each op cut into chunk-sized
// pieces, vs "monolithic", the same path with a chunk as large as the
// payload — plus the
// redistribution pipeline) and writes the machine-readable record that
// BENCH_6.json is produced from.
//
// Usage:
//
//	redistbench [-table 1|2|match|read|ablation|all] [-sizes 256,512,1024,2048]
//	            [-reps 3] [-workers 0] [-plancache] [-metrics-addr host:port]
//	redistbench -json out.json [-short] [-metrics-addr host:port]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parafile/internal/bench"
	"parafile/internal/match"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/redist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("redistbench: ")
	table := flag.String("table", "all", "which table to regenerate: 1, 2, match, read, ablation or all")
	sizesArg := flag.String("sizes", "256,512,1024,2048", "comma-separated matrix sizes")
	reps := flag.Int("reps", 3, "repetitions per configuration (real timings are averaged)")
	workers := flag.Int("workers", 0, "plan compilation workers for the ablation table (0 = GOMAXPROCS)")
	planCache := flag.Bool("plancache", false,
		"share an intersection cache across repetitions; t_i then shows the amortized (warm) cost instead of the paper's cold cost")
	metricsAddr := flag.String("metrics-addr", "",
		"serve the collected metrics over HTTP on this address after the run (/metrics Prometheus text, /metrics.json JSON, /report table, /debug/pprof profiles, /debug/trace); keeps the process alive")
	jsonOut := flag.String("json", "",
		"run the throughput benchmark (ops cut into chunk-sized pieces vs one frame per op over the same connection path) instead of the tables and write the JSON report to this path (\"-\" for stdout)")
	short := flag.Bool("short", false, "shrink the -json benchmark to CI smoke-test scale")
	flag.Parse()

	// Fail fast on malformed invocations before any benchmarking: a
	// leftover positional argument means a flag was mistyped (the flag
	// package stops parsing at the first non-flag), and an explicit
	// -workers 0 with the ablation table would silently measure the
	// GOMAXPROCS default instead of what the user asked for.
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q — flags must precede all values; run with -h for usage", flag.Args())
	}
	if *jsonOut != "" {
		if err := runThroughputJSON(*jsonOut, *short, *metricsAddr); err != nil {
			log.Fatal(err)
		}
		return
	}
	switch *table {
	case "1", "2", "match", "read", "ablation", "all":
	default:
		log.Fatalf("unknown table %q (want 1, 2, match, read, ablation or all)", *table)
	}
	workersSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSet = true
		}
	})
	if (*table == "ablation" || *table == "all") && workersSet && *workers <= 0 {
		log.Fatalf("-workers must be positive when set explicitly (got %d); omit the flag to use GOMAXPROCS", *workers)
	}

	sizes, err := parseSizes(*sizesArg)
	if err != nil {
		log.Fatal(err)
	}
	if *reps < 1 {
		log.Fatal("reps must be positive")
	}

	reg := obs.NewRegistry()
	opts := bench.Options{Metrics: reg}
	if *planCache {
		vc := redist.NewPairCache(redist.DefaultCacheCapacity)
		vc.Instrument(reg)
		opts.ViewCache = vc
	}
	// The match and read tables only need the cluster benchmark for
	// context; the ablation table does not need it at all.
	var t1 []bench.Table1Row
	var t2 []bench.Table2Row
	if *table != "read" && *table != "ablation" {
		t1, t2, err = runAveraged(sizes, *reps, opts)
		if err != nil {
			log.Fatal(err)
		}
	}
	switch *table {
	case "1":
		fmt.Print(bench.FormatTable1(t1))
	case "2":
		fmt.Print(bench.FormatTable2(t2))
	case "match":
		if err := printMatchTable(sizes, t1); err != nil {
			log.Fatal(err)
		}
	case "read":
		if err := printReadTable(sizes); err != nil {
			log.Fatal(err)
		}
	case "ablation":
		if err := printAblationTable(sizes, *workers, reg); err != nil {
			log.Fatal(err)
		}
	case "all":
		fmt.Print(bench.FormatTable1(t1))
		fmt.Println()
		fmt.Print(bench.FormatTable2(t2))
		fmt.Println()
		if err := printMatchTable(sizes, t1); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := printAblationTable(sizes, *workers, reg); err != nil {
			log.Fatal(err)
		}
	}
	if rep := obs.Report(reg); rep != "" {
		fmt.Println()
		fmt.Print(rep)
	}
	fmt.Fprintln(os.Stderr,
		"\nnote: t_i, t_m and real(host) are wall-clock on this machine; t_g, t_net and t_sc\n"+
			"come from the era-calibrated cost models (Myrinet/IDE, 2002) — compare shapes, not\n"+
			"absolute host-dependent values.")

	if *metricsAddr != "" {
		addr, shutdown, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		// The bound address goes to stderr in a greppable form so
		// scripts can use ":0" and discover the port.
		fmt.Fprintf(os.Stderr, "redistbench: serving metrics on http://%s/metrics (also /metrics.json, /report); interrupt to exit\n", addr)
		waitAndShutdown(shutdown)
	}
}

// waitAndShutdown blocks until SIGINT/SIGTERM, then drains the metrics
// server gracefully so in-flight exposition requests are not cut off
// by process exit.
func waitAndShutdown(shutdown func(context.Context) error) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		log.Printf("metrics shutdown: %v", err)
	}
}

// runThroughputJSON runs the loopback-TCP throughput benchmark and
// writes the JSON record. When a metrics address is given, the server
// starts before the run (live series while it executes) and is flushed
// and closed before the final report is emitted, so a short run never
// races exposition against exit.
func runThroughputJSON(path string, short bool, metricsAddr string) error {
	reg := obs.NewRegistry()
	var shutdown func(context.Context) error
	if metricsAddr != "" {
		addr, stop, err := obs.Serve(metricsAddr, reg)
		if err != nil {
			return err
		}
		shutdown = stop
		fmt.Fprintf(os.Stderr, "redistbench: serving live metrics on http://%s/metrics during the run\n", addr)
	}
	rep, err := bench.RunThroughput(bench.ThroughputOptions{Short: short, Metrics: reg})
	if err != nil {
		return err
	}
	if shutdown != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			return fmt.Errorf("metrics shutdown: %w", err)
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
	} else {
		err = os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"redistbench: wire write %.2fx, read %.2fx; redistribute %.2fx streamed vs monolithic; byte-identical=%v\n",
		rep.WriteSpeedup, rep.ReadSpeedup, rep.RedistSpeedup, rep.ByteIdentical)
	return nil
}

// printMatchTable prints the §9 "future work" extension: the
// quantitative matching degree of each configuration next to the write
// time it predicts.
func printMatchTable(sizes []int64, t1 []bench.Table1Row) error {
	fmt.Println("Matching degree (the paper's §9 future work) vs regenerated t_net^bc:")
	fmt.Printf("%-6s %-4s %-4s %10s %8s %12s %14s %12s\n",
		"Size", "Ph.", "Lo.", "score", "pairs", "runs/period", "mean run (B)", "t_net^bc µs")
	idx := map[[2]interface{}]bench.Table1Row{}
	for _, r := range t1 {
		idx[[2]interface{}{r.Size, r.Phys}] = r
	}
	for _, n := range sizes {
		lp, err := bench.LayoutPattern("r", n)
		if err != nil {
			return err
		}
		logical := part.MustFile(0, lp)
		for _, phys := range bench.Layouts {
			pp, err := bench.LayoutPattern(phys, n)
			if err != nil {
				return err
			}
			d, err := match.Compute(logical, part.MustFile(0, pp))
			if err != nil {
				return err
			}
			r := idx[[2]interface{}{n, phys}]
			fmt.Printf("%-6d %-4s %-4s %10.5f %8d %12d %14.0f %12.0f\n",
				n, phys, "r", d.Score, d.Pairs, d.RunsPerPeriod, d.MeanRunBytes, r.TNetBcUs)
		}
	}
	return nil
}

// printReadTable prints the read-path extension experiment: §8.2 says
// the benchmark "writes and reads" the matrix, but only the write
// breakdown is published; this regenerates the symmetric read.
func printReadTable(sizes []int64) error {
	fmt.Println("Read path (extension — not tabulated in the paper):")
	fmt.Printf("%-6s %-4s %-4s %10s %12s %10s\n", "Size", "Ph.", "Lo.", "t_m µs", "t_net µs", "msgs")
	for _, n := range sizes {
		for _, phys := range bench.Layouts {
			row, err := bench.RunReadConfig(phys, n)
			if err != nil {
				return err
			}
			fmt.Printf("%-6d %-4s %-4s %10.1f %12.0f %10d\n",
				n, phys, "r", row.TMapUs, row.TNetUs, row.Messages)
		}
	}
	return nil
}

// printAblationTable prints the plan-compilation ablation: sequential
// vs parallel compile, cold vs warm cache lookup, and the coalescing
// segment reduction.
func printAblationTable(sizes []int64, workers int, reg *obs.Registry) error {
	rows, err := bench.RunPlanAblationObs(sizes, workers, reg, nil)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatPlanAblation(rows))
	return nil
}

func parseSizes(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", f, err)
		}
		if n < 4 || n%4 != 0 {
			return nil, fmt.Errorf("size %d must be a positive multiple of 4", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}

// runAveraged repeats each configuration and averages the real (host)
// timings; the modeled virtual times are deterministic and identical
// across repetitions.
func runAveraged(sizes []int64, reps int, opts bench.Options) ([]bench.Table1Row, []bench.Table2Row, error) {
	var t1 []bench.Table1Row
	var t2 []bench.Table2Row
	for _, n := range sizes {
		for _, phys := range bench.Layouts {
			var acc1 bench.Table1Row
			var acc2 bench.Table2Row
			for r := 0; r < reps; r++ {
				r1, r2, err := bench.RunConfigOpts(phys, n, opts)
				if err != nil {
					return nil, nil, err
				}
				acc1.Size, acc1.Phys = r1.Size, r1.Phys
				acc1.TIntersectUs += r1.TIntersectUs / float64(reps)
				acc1.TMapUs += r1.TMapUs / float64(reps)
				acc1.TGatherRealUs += r1.TGatherRealUs / float64(reps)
				acc1.TGatherUs = r1.TGatherUs
				acc1.TNetBcUs = r1.TNetBcUs
				acc1.TNetDiskUs = r1.TNetDiskUs
				acc2.Size, acc2.Phys = r2.Size, r2.Phys
				acc2.ScBcUs = r2.ScBcUs
				acc2.ScDiskUs = r2.ScDiskUs
				acc2.ScRealUs += r2.ScRealUs / float64(reps)
			}
			t1 = append(t1, acc1)
			t2 = append(t2, acc2)
		}
	}
	return t1, t2, nil
}
