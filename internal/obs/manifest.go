package obs

import (
	"encoding/json"
	"os"
)

// Manifest describes one experiment run: what was asked for, what ran,
// how long each task took, and which observability files each produced.
// It is written alongside the experiment output so a trace directory is
// self-describing.
type Manifest struct {
	Tool    string  `json:"tool"`
	Title   string  `json:"title"`
	Started string  `json:"started"` // RFC3339
	WallMS  float64 `json:"wall_ms"`
	Input   string  `json:"input,omitempty"`
	Workers int     `json:"workers,omitempty"`

	// Flags records the observability-relevant invocation flags.
	Flags map[string]string `json:"flags,omitempty"`

	// Spans points at the -trace-out Chrome trace file covering this run,
	// when span tracing was enabled.
	Spans string `json:"spans,omitempty"`

	Tasks []ManifestTask `json:"tasks,omitempty"`
}

// ManifestTask is one (workload, series) unit of work.
type ManifestTask struct {
	Workload string  `json:"workload"`
	Series   string  `json:"series"`
	Worker   int     `json:"worker"`
	WallMS   float64 `json:"wall_ms"`
	// Cache is the simulation-cache outcome for the series point:
	// "hit", "miss", "shared", or "traced" (observed runs bypass the result
	// cache). With caching disabled every untraced task is a "miss".
	Cache string   `json:"cache,omitempty"`
	Files []string `json:"files,omitempty"`
	// Index summarizes the pipetrace seek index the task wrote, so tooling
	// can discover indexed traces without globbing the output directory.
	Index *IndexInfo `json:"index,omitempty"`
	Error string     `json:"error,omitempty"`
}

// WriteManifest writes the manifest as indented JSON.
func WriteManifest(path string, m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}

// ReadManifest parses a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
