package core

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// This file is the shared CLI surface for run observability: every driver
// registers the same -v/-httpaddr/-trace-out/-ledger flag set and installs
// what it asks for the same way.

// Driver is one driver run's installed observability, resolved from the
// flags DriverFlags registers.
type Driver struct {
	// Verbose is the -v flag. Structured telemetry is already installed on
	// stderr; a driver may print extra detail of its own.
	Verbose bool

	traceOut string
	tracer   *metrics.Tracer
	led      *ledger.Ledger
}

// DriverFlags registers -v, -httpaddr, -trace-out, -ledger and -ledger-rev
// on the default flag set and returns a resolver to call after flag.Parse.
// The resolver installs the structured telemetry logger, the debug server,
// the span tracer and the run ledger, as the flags ask. Call Close on the
// returned Driver once the run's last span and ledger record are done.
func DriverFlags() func() (*Driver, error) {
	var (
		verbose   = flag.Bool("v", false, "verbose: structured telemetry on stderr")
		httpaddr  = flag.String("httpaddr", "", "serve expvar, pprof, /metrics, /debug/sweep and /debug/dash on this address during the run")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace (and FILE.spans.jsonl) of the run's spans to FILE")
		ledgerDir = flag.String("ledger", "", "append run records to the persistent ledger in this directory")
		ledgerRev = flag.String("ledger-rev", "", "revision label for ledger records (default: MG_REV or the binary's vcs revision)")
	)
	return func() (*Driver, error) {
		d := &Driver{Verbose: *verbose, traceOut: *traceOut}
		if *ledgerDir != "" {
			led, err := ledger.Open(*ledgerDir, *ledgerRev)
			if err != nil {
				return nil, err
			}
			d.led = led
			SetLedger(led)
		}
		if *verbose {
			SetTelemetry(slog.New(slog.NewTextHandler(os.Stderr, nil)))
		}
		if *httpaddr != "" {
			EnableMetrics()
			addr, err := obs.ServeDebug(*httpaddr)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "debug server on http://%s — /debug/vars /debug/pprof/ /metrics /debug/sweep /debug/dash\n", addr)
		}
		if *traceOut != "" {
			EnableMetrics()
			d.tracer = metrics.NewTracer()
			metrics.InstallTracer(d.tracer)
			metrics.SetCPUAccounting(true)
		}
		return d, nil
	}
}

// Close writes the -trace-out files, naming them on stderr, and closes the
// run ledger.
func (d *Driver) Close() error {
	var err error
	if d.tracer != nil {
		jsonl, terr := metrics.WriteTraceFiles(d.traceOut, d.tracer)
		if terr != nil {
			err = terr
		} else {
			fmt.Fprintf(os.Stderr, "trace: %s (Chrome/Perfetto), %s (JSONL)\n", d.traceOut, jsonl)
		}
	}
	if d.led != nil {
		if cerr := d.led.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
