package main

import (
	"os"

	"repro/internal/critpath"
)

// exportCritpath writes the optional JSON and CSV artifacts.
func exportCritpath(rep *critpath.Report, jsonPath, csvPath string) error {
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := critpath.WriteJSON(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := critpath.WriteScoreboardCSV(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
