// Package cmd_test drives the six binaries as a user does: flags in,
// exit status and output out. A renamed flag, a lost usage error or a
// panic on a malformed input file fails `go test`, not only a CI shell
// step.
package cmd_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"portcc/internal/dataset"
	"portcc/internal/ml"
)

// corrupt saves a valid file under dir, then rewrites it with edit: a
// byte-level corruption no build writes, which the loader must refuse.
func corrupt(t *testing.T, dir, name string, save func(path string) error, edit func(b []byte) []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(b), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// raggedDatasets writes two dataset files whose bodies disagree with
// their counts: one whose spec length runs past the end of the file, one
// with a trailing byte.
func raggedDatasets(t *testing.T, dir string) (pastEnd, trailing string) {
	t.Helper()
	ds, err := dataset.Generate(context.Background(), dataset.GenConfig{
		Programs: []string{"crc", "qsort"},
		NumArchs: 2,
		NumOpts:  4,
		Seed:     21,
		Eval:     dataset.EvalConfig{TargetInsns: 6000, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	specLen := len("portcc-dataset") + 16 // magic, version, config length
	pastEnd = corrupt(t, dir, "past-end.bin", ds.Save, func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[specLen:], 1<<40)
		return b
	})
	trailing = corrupt(t, dir, "trailing.bin", ds.Save, func(b []byte) []byte { return append(b, 0) })
	return pastEnd, trailing
}

// nilNormModel writes a model artifact cut off where its normaliser
// begins.
func nilNormModel(t *testing.T, dir string) string {
	t.Helper()
	m := ml.Train([]ml.TrainingPair{{Prog: "crc", X: []float64{1, 2}}})
	return corrupt(t, dir, "nilnorm.bin", func(path string) error { return ml.Save(path, m, ml.ArtifactInfo{}) },
		func(b []byte) []byte { return b[:len(b)-8*(1+2+2+2+96)] })
}

func TestCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six binaries")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+"/", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	pastEnd, trailing := raggedDatasets(t, bin)
	nilNorm := nilNormModel(t, bin)

	type row struct {
		name string // stable across runs: no temporary path in it
		bin  string
		args []string
		code int
		want string // substring of stdout+stderr
	}
	var rows []row
	for _, b := range []string{"trainer", "expgen", "portcc", "portccd", "portccsd", "portccs"} {
		rows = append(rows, row{b + " undefined flag", b, []string{"-no-such-flag"}, 2, "flag provided but not defined"})
	}
	rows = append(rows,
		row{"portcc -list", "portcc", []string{"-list"}, 0, "rijndael_e\n"},
		row{"portcc -model and -dataset", "portcc", []string{"-model", "a", "-dataset", "b"}, 1, "not both"},
		row{"trainer unknown scale", "trainer", []string{"-scale", "bogus"}, 1, "unknown scale"},
		row{"expgen unknown scale", "expgen", []string{"-scale", "bogus"}, 1, "unknown scale"},
		row{"expgen -fig t2", "expgen", []string{"-fig", "t2"}, 0, "288"},
		row{"expgen unknown fig", "expgen", []string{"-fig", "bogus"}, 2, "ablation"},
		row{"expgen ragged dataset", "expgen", []string{"-dataset", pastEnd, "-fig", "4"}, 1, "invalid configuration: 130+1099511627776 bytes of JSON in a"},
		row{"portcc ragged dataset", "portcc", []string{"-dataset", trailing}, 1, "invalid configuration: 2 programs x 2 archs x 5 settings in a"},
		row{"portcc nil-normaliser model", "portcc", []string{"-model", nilNorm}, 1, "invalid configuration: 1 pairs of 2 features in a"},
		// flag answers -h itself: the flag set on stderr, status 0.
		row{"portccd -h", "portccd", []string{"-h"}, 0, "-listen"},
		row{"portccd -h lists -cpuprofile", "portccd", []string{"-h"}, 0, "-cpuprofile"},
		row{"portccd -h lists -memprofile", "portccd", []string{"-h"}, 0, "-memprofile"},
		row{"portccd unwritable -cpuprofile", "portccd", []string{"-cpuprofile", filepath.Join(bin, "missing", "cpu.pprof")}, 1, "-cpuprofile"},
		row{"portccsd -h", "portccsd", []string{"-h"}, 0, "-listen"},
		row{"portccs -h", "portccs", []string{"-h"}, 0, "-addr"},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, r.bin), r.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				t.Fatal(err)
			}
			if code := cmd.ProcessState.ExitCode(); code != r.code {
				t.Errorf("exit status %d, want %d\nstderr: %s", code, r.code, &stderr)
			}
			if all := stdout.String() + stderr.String(); !strings.Contains(all, r.want) {
				t.Errorf("output lacks %q\nstdout: %s\nstderr: %s", r.want, &stdout, &stderr)
			}
			if s := stderr.String(); strings.Contains(s, "panic:") || strings.Contains(s, "goroutine ") {
				t.Errorf("the process panicked:\n%s", s)
			}
			if r.args[0] == "-list" {
				if n := strings.Count(stdout.String(), "\n"); n != 35 {
					t.Errorf("-list printed %d lines, want the 35 programs of the suite", n)
				}
			}
		})
	}
}
