package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

// The goldens are tab-separated text files, one per workload, covering all
// programs so that every seed's draw is checked:
//
//	programs.tsv     program, suite, dynamic instructions on small and large
//	<workload>.tsv   request id, then relative performance and coverage
//	                 (sweeps, printed with %.17g) or cycles and committed
//	                 instructions (task workloads); "error" and the message
//	                 where the request fails
//
// Lines starting with '#' are comments.

// program is one row of programs.tsv.
type program struct {
	name, suite string
	instrs      map[string]int64 // input -> dynamic instructions
}

// goldens holds the expected output of every workload.
type goldens struct {
	programs []program
	points   map[string]map[string][2]string // workload -> request id -> values
}

func readTSV(path string, fields int, row func([]string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if sc.Text() == "" || strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		cols := strings.Split(sc.Text(), "\t")
		if len(cols) != fields {
			return fmt.Errorf("%s:%d: %d fields, want %d", path, line, len(cols), fields)
		}
		if err := row(cols); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	return sc.Err()
}

func loadGoldens(dir string) (*goldens, error) {
	g := &goldens{points: map[string]map[string][2]string{}}
	err := readTSV(filepath.Join(dir, "programs.tsv"), 4, func(c []string) error {
		small, err1 := strconv.ParseInt(c[2], 10, 64)
		large, err2 := strconv.ParseInt(c[3], 10, 64)
		if err1 != nil || err2 != nil || workload.Find(c[0]) == nil {
			return fmt.Errorf("bad program row %q", c)
		}
		g.programs = append(g.programs, program{name: c[0], suite: c[1],
			instrs: map[string]int64{"small": small, "large": large}})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, w := range workloads {
		pts := map[string][2]string{}
		err := readTSV(filepath.Join(dir, w.name+".tsv"), 3, func(c []string) error {
			pts[c[0]] = [2]string{c[1], c[2]}
			return nil
		})
		if err != nil {
			return nil, err
		}
		g.points[w.name] = pts
	}
	return g, nil
}

// checkResult counts the requests a run attempted and those that failed:
// returned an error, broke an invariant or disagree with the golden.
type checkResult struct {
	attempted, failed int
	failures          []string // the first few, for the report
	ipcErr            []float64
}

func (c *checkResult) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// check compares outcomes of workload w with the goldens. A sampled
// outcome also adds its cycle error against the exact timing-large golden.
func (g *goldens) check(w string, outs []outcome, c *checkResult) {
	for _, o := range outs {
		c.attempted++
		want, ok := g.points[w][o.req]
		switch {
		case o.err != nil:
			c.fail("%s: %v", o.req, o.err)
		case o.broken != "":
			c.fail("%s: %s", o.req, o.broken)
		case !ok:
			c.fail("%s: no golden", o.req)
		case o.vals != want:
			c.fail("%s: got %s %s, golden %s %s", o.req, o.vals[0], o.vals[1], want[0], want[1])
		}
		if o.sampled && o.err == nil {
			est, _ := strconv.ParseFloat(o.vals[0], 64)
			exact, err := strconv.ParseFloat(g.points["timing-large"][o.req][0], 64)
			if err == nil && exact > 0 {
				c.ipcErr = append(c.ipcErr, math.Abs(est-exact)/exact)
			}
		}
	}
}

// writeGoldens runs every workload once over all programs and writes the
// golden files into dir.
func writeGoldens(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var names []string
	var rows strings.Builder
	rows.WriteString("# program\tsuite\tsmall instrs\tlarge instrs\n")
	for _, wl := range workload.All() {
		var n [2]int
		for i, input := range workload.Inputs {
			b, err := core.Prepare(wl, input)
			if err != nil {
				return err
			}
			n[i] = len(b.Trace)
		}
		names = append(names, wl.Name)
		fmt.Fprintf(&rows, "%s\t%s\t%d\t%d\n", wl.Name, wl.Suite, n[0], n[1])
	}
	if err := os.WriteFile(filepath.Join(dir, "programs.tsv"), []byte(rows.String()), 0o644); err != nil {
		return err
	}
	for _, w := range workloads {
		core.ResetCaches()
		benches, prepErrs := w.setup(names)
		outs, _ := w.run(names, benches, prepErrs)
		var sb strings.Builder
		fmt.Fprintf(&sb, "# %s on %s inputs: request\t%s\n", w.name, w.input, goldenColumns(w))
		for _, o := range outs {
			switch {
			case o.broken != "":
				return fmt.Errorf("%s: %s", o.req, o.broken)
			case o.err != nil:
				fmt.Fprintf(&sb, "%s\terror\t%s\n", o.req, strings.ReplaceAll(o.err.Error(), "\t", " "))
			default:
				fmt.Fprintf(&sb, "%s\t%s\t%s\n", o.req, o.vals[0], o.vals[1])
			}
		}
		if err := os.WriteFile(filepath.Join(dir, w.name+".tsv"), []byte(sb.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func goldenColumns(w *benchWorkload) string {
	if w.isSweep() {
		return "relative performance\tcoverage"
	}
	return "cycles\tinstructions"
}
