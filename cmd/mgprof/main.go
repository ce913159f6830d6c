// Command mgprof collects a local-slack profile for a workload: a singleton
// (non-mini-graph) timing simulation whose per-static-instruction average
// issue times, operand ready times and local slacks drive the
// Slack-Profile selector. The profile is written as JSON.
//
// Usage:
//
//	mgprof -workload media.adpcm_enc [-input large] [-config reduced] [-o profile.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/pipeline"
)

func main() {
	var (
		wName   = flag.String("workload", "", "workload name")
		input   = flag.String("input", "large", "input set")
		cfgName = flag.String("config", "reduced", "profiling machine: baseline, reduced, 2way, 8way, dmem4")
		out     = flag.String("o", "-", "output file (- for stdout)")
	)
	flag.Parse()
	if *wName == "" {
		fmt.Fprintln(os.Stderr, "mgprof: -workload required")
		os.Exit(2)
	}
	cfg, err := pipeline.ConfigByName(*cfgName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgprof:", err)
		os.Exit(2)
	}

	bench, err := core.PrepareByName(*wName, *input)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgprof:", err)
		os.Exit(1)
	}
	prof, err := bench.Profile(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgprof:", err)
		os.Exit(1)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgprof:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := prof.Save(w); err != nil {
		fmt.Fprintln(os.Stderr, "mgprof:", err)
		os.Exit(1)
	}
}
