// Command e2ebench is D-Watch's served-path benchmark. It generates
// seeded LLRP report streams, sends them open-loop over one TCP LLRP
// connection to a system under test running in a child process (fleet,
// WAL, serve plane, cluster gateway and agent), reads fixes back over
// SSE, checks every fix bit for bit against a WAL replay of the same
// bytes, and prints one JSON result line.
//
//	e2ebench --workload library-loaded --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		os.Exit(runSUT(os.Stdin, os.Stdout))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "library-loaded", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured window length in seconds")
	trace := flag.Int("trace", 0, "1 = also run a traced window and print the per-layer metrics")
	flag.Float64Var(&o.rate, "rate", 0, "override the pinned round rate per environment (capacity probing)")
	flag.Parse()
	o.trace = *trace == 1
	// setup_s is the median of three set-ups; a traced run does not
	// report it, so one set-up suffices there.
	o.setups = 3
	if o.trace {
		o.setups = 1
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(o options) (*result, error) {
	w, ok := workloads()[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.rate > 0 {
		w.rate = o.rate
	}
	work, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.work = work
	b := &bench{o: o, w: w}
	var sum *summary
	if w.live {
		sum, err = b.runLive()
	} else {
		sum, err = b.runRecover()
	}
	if err != nil {
		return nil, err
	}
	res := b.result(sum)
	if len(b.invalid) > 0 {
		return nil, fmt.Errorf("invalid run: %s", strings.Join(b.invalid, "; "))
	}
	return res, nil
}
