// Command bench is the repository's benchmark: four workloads, measured
// end to end with tracing off and, in a separate traced run, layer by
// layer. README.md in this directory defines every workload and metric.
//
//	go run ./bench -all -seed 1                         every workload, measured and traced
//	go run ./bench -workload text_http -seed 3          one measured run
//	go run ./bench -workload text_http -seed 3 -trace 1 one traced run
//	go run ./bench -compare bench/baseline/seed1.json bench/out/set.json
//
// BENCHMARK.json at the repository root declares the driver's command
// (bench/run.sh, which builds this program inside the checkout), the
// workloads and the metrics; the last line of a single run's standard
// output is the driver's result object.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// procs is the GOMAXPROCS every run sets and records: the reference box
// has two CPUs.
const procs = 2

func main() {
	var (
		all      = flag.Bool("all", false, "run every workload, measured then traced, and save the set")
		workload = flag.String("workload", "", "run one workload: path_nav, text_http, point_http or ingest_mixed")
		seed     = flag.Int64("seed", 1, "seed of the generated corpus and request schedule")
		seconds  = flag.Int("seconds", 10, "length of the measured window; also scales ingest_mixed's fixed work and the traced replay")
		trace    = flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the measured run (end-to-end metrics)")
		runs     = flag.Int("runs", 1, "with -all: how many times to run the whole set")
		docs     = flag.Int("docs", 0, "with -workload: override the base corpus size, for off-contract scale curves")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for result files and scratch data")
		compare  = flag.Bool("compare", false, "compare two saved sets (files, or directories holding set.json): bench -compare A B")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two sets, got %d arguments", flag.NArg()))
		}
		worse, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
	case *all:
		if err := runAll(*seed, *seconds, *runs, *out); err != nil {
			fail(err)
		}
	case *workload != "":
		s := specByName(*workload)
		if s == nil {
			fail(fmt.Errorf("unknown workload %q", *workload))
		}
		if *docs > 0 {
			if *docs < s.roots || *docs%batchDocs != 0 {
				fail(fmt.Errorf("-docs must be a multiple of %d and at least %d for %s", batchDocs, s.roots, s.name))
			}
			scaled := *s
			scaled.docs = *docs
			s = &scaled
		}
		res, err := runOne(s, *seed, *seconds, *trace != 0, *out)
		if err != nil {
			fail(err)
		}
		res.print(os.Stdout)
		fmt.Println(res.contractLine())
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %s\n", s.name, res.Failed, res.Attempted, res.FirstErr)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one workload once, measured or traced, in a scratch
// directory under out that is removed afterwards, and writes the result
// file (the traced one carries the spans).
func runOne(s *spec, seed int64, seconds int, trace bool, out string) (*result, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(out, "scratch-"+s.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	run := runMeasured
	if trace {
		run = runTraced
	}
	res, err := run(s, seed, seconds, scratch)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	if err := res.complete(); err != nil {
		return nil, err
	}
	return res, writeJSON(filepath.Join(out, res.fileName()), res)
}

// runAll runs every workload, measured then traced, runs times over, and
// saves the set. It fails after the set is complete if any operation of
// any run failed.
func runAll(seed int64, seconds, runs int, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	all := newSet(hostInfo(out), seed, seconds)
	fmt.Printf("# GOMAXPROCS=%d seed=%d seconds=%d; %s\n# %s\n", procs, seed, seconds, all.Policy, all.Host.Note)
	failed := 0
	for i := 0; i < runs; i++ {
		for _, s := range specs {
			for _, trace := range []bool{false, true} {
				res, err := runOne(s, seed, seconds, trace, out)
				if err != nil {
					return err
				}
				res.print(os.Stdout)
				res.Spans = nil
				all.add(res)
				if !res.Correct {
					failed += res.Failed
					fmt.Printf("%s FAILED %d of %d operations; first: %s\n", s.name, res.Failed, res.Attempted, res.FirstErr)
				}
			}
		}
	}
	if err := writeJSON(filepath.Join(out, "set.json"), all); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
