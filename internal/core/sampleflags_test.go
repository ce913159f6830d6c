package core

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// TestSampleFlags resolves the -sample-* flags as the commands do. A
// -sample-* flag set without -sample-mode is an error, never a silent exact
// run, and the only mode is rep.
func TestSampleFlags(t *testing.T) {
	rep := pipeline.SampleRepresentative
	for _, tc := range []struct {
		args    []string
		want    *pipeline.SampleSpec
		wantErr string // substring of the parse or resolve error; "" = none
	}{
		{args: nil},
		{args: []string{"-sample-mode", "rep"},
			want: &pipeline.SampleSpec{Mode: rep, Interval: 1000, Window: 1000}},
		{args: []string{"-sample-mode", "representative", "-sample-interval", "2000", "-sample-window", "500", "-sample-clusters", "4"},
			want: &pipeline.SampleSpec{Mode: rep, Interval: 2000, Window: 500, Clusters: 4}},
		{args: []string{"-sample-window", "500"}, wantErr: "-sample-window set without -sample-mode rep"},
		{args: []string{"-sample-window", "1000"}, wantErr: "-sample-window set without -sample-mode rep"},
		{args: []string{"-sample-interval", "1000", "-sample-clusters", "0"},
			wantErr: "-sample-clusters, -sample-interval set without -sample-mode rep"},
		{args: []string{"-sample-mode", "uniform"}, wantErr: `unknown sample mode "uniform" (want rep)`},
		{args: []string{"-sample-warmup", "7"}, wantErr: "flag provided but not defined: -sample-warmup"},
	} {
		fs := flag.NewFlagSet("mgsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		resolve := SampleFlags(fs)
		err := fs.Parse(tc.args)
		var got *pipeline.SampleSpec
		if err == nil {
			got, err = resolve()
		}
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.wantErr)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("%q: spec %+v, want %+v", tc.args, got, tc.want)
		}
	}
}
