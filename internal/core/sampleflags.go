package core

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/pipeline"
)

// This file is the shared CLI surface for sampled (multi-fidelity)
// simulation: every driver registers the same -sample-* flag set and
// resolves it into a *pipeline.SampleSpec the same way, so "mgsim
// -sample-mode rep" and "mgreport -sample-mode rep" mean the same thing.

// SampleFlags registers the -sample-* flags on fs (the commands pass
// flag.CommandLine) and returns a resolver to call after parsing. The
// resolver yields nil when -sample-mode is unset (full-detail simulation,
// the default) and rejects every other -sample-* flag set without it, so a
// typo'd invocation can't silently run exact.
func SampleFlags(fs *flag.FlagSet) func() (*pipeline.SampleSpec, error) {
	var (
		mode     = fs.String("sample-mode", "", `sampled (estimated) fidelity: "rep" representative intervals; empty = full detail`)
		interval = fs.Int("sample-interval", 1000, "feature-interval length in instructions; a trace that fits one interval runs in full detail")
		window   = fs.Int("sample-window", 1000, "detailed window length in instructions")
		clusters = fs.Int("sample-clusters", 0, "detailed-window budget; 0 = auto-scale with trace length")
	)
	return func() (*pipeline.SampleSpec, error) {
		if *mode == "" {
			var orphans []string
			fs.Visit(func(f *flag.Flag) {
				if strings.HasPrefix(f.Name, "sample-") && f.Name != "sample-mode" {
					orphans = append(orphans, "-"+f.Name)
				}
			})
			if len(orphans) > 0 {
				return nil, fmt.Errorf("%s set without -sample-mode rep", strings.Join(orphans, ", "))
			}
			return nil, nil
		}
		m, err := pipeline.ParseSampleMode(*mode)
		if err != nil {
			return nil, err
		}
		return &pipeline.SampleSpec{
			Interval: *interval,
			Window:   *window,
			Mode:     m,
			Clusters: *clusters,
		}, nil
	}
}

// SampleBanner renders the one-line fidelity banner a driver prints next to
// a sampled run's statistics.
func SampleBanner(spec pipeline.SampleSpec, rep pipeline.SampleReport) string {
	if rep.Full {
		return fmt.Sprintf("sampled %s: trace fits one interval — ran in full detail", spec.Summary())
	}
	return fmt.Sprintf("sampled %s (estimate): %d intervals -> %d windows, %d detailed + %d warmed instrs (%.2f%% detailed), errbound ±%.2f%%",
		spec.Summary(), rep.Intervals, rep.Windows, rep.DetailInstrs, rep.WarmInstrs,
		100*rep.SimulatedFrac, 100*rep.ErrBound)
}
