package ledger

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// This file renders /debug/dash: a stdlib-only HTML observatory over the
// run ledger. It answers the questions a long sweep raises — how does this
// run compare with the history, is the cache earning its keep, what is
// still in flight — with per-series IPC sparklines (inline SVG),
// latest-vs-previous deltas, per-run cache hit rates over time, and the
// live sweep progress the /debug/sweep endpoint serves as JSON. Every
// number drawn in a sparkline also appears as text in the adjacent table
// cells, so the page degrades to a plain table without color or vision.

// sparkPoints caps the points drawn per sparkline; older history falls off
// the left edge (the tables still aggregate everything).
const sparkPoints = 60

// DashHandler serves the ledger dashboard. src returns the live ledger
// (nil when -ledger is off, which serves 503 with a hint instead).
func DashHandler(src func() *Ledger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		l := src()
		if l == nil {
			http.Error(w, "run ledger off: start the process with -ledger DIR to record and browse run history", http.StatusServiceUnavailable)
			return
		}
		recs, skipped, err := Read(l.Path())
		if err != nil {
			http.Error(w, "ledger read: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		dashTmpl.Execute(w, buildDash(l, recs, skipped)) //nolint:errcheck — best-effort debug endpoint
	})
}

// dashSeries is one (workload, series, input) row of the history table.
type dashSeries struct {
	Workload string
	Series   string
	Input    string
	Runs     int
	Spark    template.HTML // IPC history sparkline
	IPC      float64       // latest
	DeltaPct float64       // latest vs previous record, percent
	HasPrev  bool
	Regress  bool // DeltaPct below -1%
	WallMS   float64
	Cache    string
	Rev      string
}

// dashRun is one process invocation aggregated from its records.
type dashRun struct {
	Time    string
	Rev     string
	Tool    string
	Sweeps  int
	Records int
	HitPct  float64 // hit+shared share of cache-attributed records
	WallS   float64 // summed task wall time
}

// dashSweep is one live or recently finished sweep from the progress layer.
type dashSweep struct {
	Title   string
	Active  bool
	Done    int
	Total   int
	Failed  int
	PctDone float64
	ETA     string
}

type dashView struct {
	Path     string
	Rev      string
	Host     string
	Records  int
	Skipped  int
	Revs     []string
	Series   []dashSeries
	Runs     []dashRun
	RunSpark template.HTML // hit-rate-over-runs sparkline
	Sweeps   []dashSweep
}

// buildDash aggregates the raw history into the page's view model.
func buildDash(l *Ledger, recs []Record, skipped int) dashView {
	v := dashView{
		Path:    l.Path(),
		Rev:     l.Rev(),
		Host:    l.Host().Summary(),
		Records: len(recs),
		Skipped: skipped,
	}

	// Series history: timing records grouped by point, in append order.
	byPoint := map[string][]Record{}
	var pointOrder []string
	revSeen := map[string]bool{}
	for _, r := range recs {
		if r.Rev != "" && !revSeen[r.Rev] {
			revSeen[r.Rev] = true
			v.Revs = append(v.Revs, r.Rev)
		}
		if r.Cycles <= 0 || r.Error != "" {
			continue
		}
		k := r.PointKey()
		if _, ok := byPoint[k]; !ok {
			pointOrder = append(pointOrder, k)
		}
		byPoint[k] = append(byPoint[k], r)
	}
	sort.Strings(pointOrder)
	for _, k := range pointOrder {
		h := byPoint[k]
		last := h[len(h)-1]
		ipcs := make([]float64, len(h))
		for i, r := range h {
			ipcs[i] = r.IPC
		}
		row := dashSeries{
			Workload: last.Workload,
			Series:   last.Series,
			Input:    last.Input,
			Runs:     len(h),
			Spark:    sparkline(ipcs),
			IPC:      last.IPC,
			WallMS:   last.WallMS,
			Cache:    last.Cache,
			Rev:      last.Rev,
		}
		if len(h) > 1 && h[len(h)-2].IPC > 0 {
			row.HasPrev = true
			row.DeltaPct = 100 * (last.IPC - h[len(h)-2].IPC) / h[len(h)-2].IPC
			row.Regress = row.DeltaPct < -1
		}
		v.Series = append(v.Series, row)
	}

	// Runs: records grouped by RunID in first-seen order; cache hit rate
	// counts hit+shared against all cache-attributed lookups.
	type runAgg struct {
		dashRun
		hits, lookups int
		sweeps        map[string]bool
	}
	byRun := map[string]*runAgg{}
	var runOrder []string
	for _, r := range recs {
		a, ok := byRun[r.RunID]
		if !ok {
			a = &runAgg{dashRun: dashRun{Time: r.Time, Rev: r.Rev, Tool: r.Tool}, sweeps: map[string]bool{}}
			byRun[r.RunID] = a
			runOrder = append(runOrder, r.RunID)
		}
		a.Records++
		a.WallS += r.WallMS / 1e3
		if r.Sweep != "" {
			a.sweeps[r.Sweep] = true
		}
		switch r.Cache {
		case "hit", "shared":
			a.hits++
			a.lookups++
		case "miss", "nocache", "traced":
			a.lookups++
		}
	}
	hitRates := make([]float64, 0, len(runOrder))
	for _, id := range runOrder {
		a := byRun[id]
		a.Sweeps = len(a.sweeps)
		if a.lookups > 0 {
			a.HitPct = 100 * float64(a.hits) / float64(a.lookups)
		}
		if t := a.Time; len(t) >= 19 {
			a.dashRun.Time = strings.Replace(t[:19], "T", " ", 1)
		}
		hitRates = append(hitRates, a.HitPct)
		v.Runs = append(v.Runs, a.dashRun)
	}
	v.RunSpark = sparkline(hitRates)

	// Live sweeps from the always-on progress layer.
	for _, s := range metrics.SnapshotSweeps() {
		d := dashSweep{Title: s.Title, Active: s.Active, Done: s.Done,
			Total: s.Total, Failed: s.Failed}
		if s.Total > 0 {
			d.PctDone = 100 * float64(s.Done) / float64(s.Total)
		}
		if s.ETAMS > 0 {
			d.ETA = fmt.Sprintf("%.0fs", s.ETAMS/1e3)
		}
		v.Sweeps = append(v.Sweeps, d)
	}
	return v
}

// sparkline renders values as a word-sized inline-SVG line (newest right).
// The y range spans the data with a small pad; a flat series draws a
// midline. Values also live in the surrounding table, so the graphic
// carries trend shape, not the only copy of the numbers.
func sparkline(vals []float64) template.HTML {
	if len(vals) > sparkPoints {
		vals = vals[len(vals)-sparkPoints:]
	}
	const w, h = 120, 24
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, x := range vals {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi, lo = hi+0.5, lo-0.5
	}
	pad := (hi - lo) * 0.12
	hi, lo = hi+pad, lo-pad
	var pts strings.Builder
	step := float64(w-4) / float64(max(len(vals)-1, 1))
	var lastX, lastY float64
	for i, x := range vals {
		px := 2 + float64(i)*step
		py := float64(h-2) - (x-lo)/(hi-lo)*float64(h-4)
		fmt.Fprintf(&pts, "%.1f,%.1f ", px, py)
		lastX, lastY = px, py
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d" role="img">`, w, h, w, h)
	fmt.Fprintf(&sb, `<title>%d points, %.4g to %.4g</title>`, len(vals), vals[0], vals[len(vals)-1])
	if len(vals) == 1 {
		fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="2" class="spark-dot"/>`, lastX, lastY)
	} else {
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" class="spark-line" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>`, strings.TrimSpace(pts.String()))
		fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="2.5" class="spark-dot"/>`, lastX, lastY)
	}
	sb.WriteString(`</svg>`)
	return template.HTML(sb.String())
}

var dashTmpl = template.Must(template.New("dash").Parse(`<!doctype html>
<html><head><meta charset="utf-8"><title>mini-graph run ledger</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f1f0ee;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --series-1: #2a78d6; --status-serious: #e34948; --grid: #dddcd8;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.45 system-ui, sans-serif; margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #262624;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --series-1: #3987e5; --status-serious: #e66767; --grid: #3a3936;
  }
}
h1 { font-size: 18px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.meta { color: var(--text-secondary); margin: 0 0 2px; }
table { border-collapse: collapse; margin-top: 6px; }
th { text-align: left; color: var(--text-secondary); font-weight: 600; }
th, td { padding: 3px 14px 3px 0; border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.spark-line { stroke: var(--series-1); }
.spark-dot { fill: var(--series-1); }
.delta-down { color: var(--status-serious); font-weight: 600; }
.bar { background: var(--surface-2); border-radius: 4px; width: 160px; height: 10px; display: inline-block; vertical-align: middle; }
.bar > span { background: var(--series-1); border-radius: 4px; height: 10px; display: block; }
.muted { color: var(--text-secondary); }
</style></head>
<body class="viz-root">
<h1>mini-graph run ledger</h1>
<p class="meta">{{.Path}} — {{.Records}} records{{if .Skipped}}, {{.Skipped}} skipped (torn/corrupt){{end}} — appending as rev <b>{{.Rev}}</b></p>
<p class="meta">{{.Host}}</p>
<p class="meta">revisions seen: {{range $i, $r := .Revs}}{{if $i}}, {{end}}{{$r}}{{end}}</p>

{{if .Sweeps}}<h2>Sweeps this process</h2>
<table><tr><th>sweep</th><th>progress</th><th class="num">done</th><th class="num">failed</th><th class="num">ETA</th></tr>
{{range .Sweeps}}<tr><td>{{.Title}}</td>
<td><span class="bar"><span style="width:{{printf "%.0f" .PctDone}}%"></span></span></td>
<td class="num">{{.Done}}/{{.Total}}</td><td class="num">{{if .Failed}}{{.Failed}}{{else}}–{{end}}</td>
<td class="num">{{if .Active}}{{if .ETA}}{{.ETA}}{{else}}…{{end}}{{else}}done{{end}}</td></tr>
{{end}}</table>{{end}}

<h2>Series history</h2>
{{if not .Series}}<p class="muted">no timing records yet — run a sweep with -ledger pointing here</p>{{else}}
<table><tr><th>workload</th><th>series</th><th>input</th><th>IPC history</th>
<th class="num">runs</th><th class="num">IPC</th><th class="num">Δ prev</th><th class="num">wall ms</th><th>cache</th><th>rev</th></tr>
{{range .Series}}<tr><td>{{.Workload}}</td><td>{{.Series}}</td><td>{{.Input}}</td><td>{{.Spark}}</td>
<td class="num">{{.Runs}}</td><td class="num">{{printf "%.4f" .IPC}}</td>
<td class="num{{if .Regress}} delta-down{{end}}">{{if .HasPrev}}{{printf "%+.1f%%" .DeltaPct}}{{else}}–{{end}}</td>
<td class="num">{{printf "%.1f" .WallMS}}</td><td>{{.Cache}}</td><td>{{.Rev}}</td></tr>
{{end}}</table>{{end}}

<h2>Runs &amp; cache hit rate</h2>
{{if .Runs}}<p class="meta">hit rate over runs: {{.RunSpark}}</p>
<table><tr><th>started (UTC)</th><th>rev</th><th>tool</th><th class="num">sweeps</th><th class="num">records</th><th class="num">cache hit %</th><th class="num">task wall s</th></tr>
{{range .Runs}}<tr><td>{{.Time}}</td><td>{{.Rev}}</td><td>{{.Tool}}</td>
<td class="num">{{if .Sweeps}}{{.Sweeps}}{{else}}–{{end}}</td><td class="num">{{.Records}}</td>
<td class="num">{{printf "%.1f" .HitPct}}</td><td class="num">{{printf "%.1f" .WallS}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no runs recorded yet</p>{{end}}
</body></html>
`))
