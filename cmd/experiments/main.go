// Command experiments regenerates the paper's tables and figures from the
// simulated reproduction. Each experiment prints the same rows/series the
// paper reports (PAPER.md has the paper's abstract; -h lists the experiment
// ids). -csv emits every series in the unit its table uses.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp table1,fig7b -csv
//	experiments -exp gateway -trace trace_gateway.json   # Perfetto trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpichmad/internal/cluster"
	"mpichmad/internal/experiments"
	"mpichmad/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids: "+strings.Join(experiments.IDs(), ", ")+", or 'all'")
	csv := flag.Bool("csv", false, "emit CSV for plotting instead of aligned tables")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable, virtual-time µs) of every session the selected experiments run")
	flag.Parse()

	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(nil)
		cluster.SetDefaultTracer(tracer)
	}

	var results []*experiments.Result
	if *exp == "all" {
		rs, err := experiments.All()
		if err != nil {
			fatal(err)
		}
		results = rs
	} else {
		for _, id := range strings.Split(*exp, ",") {
			r, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			results = append(results, r)
		}
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteChrome(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d trace events to %s\n",
			len(tracer.Events()), *traceOut)
	}
	for _, r := range results {
		if *csv && len(r.Series) > 0 {
			fmt.Print(r.CSV())
		} else {
			fmt.Println(r.Text)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
