package portcc_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"portcc"
	"portcc/internal/ml"
)

// tinyModelFixture generates the tiny-scale dataset and trains the
// model once per test binary; every artifact test reuses it.
var tinyModelFixture struct {
	ds    *portcc.Dataset
	model *portcc.Model
}

func tinyModel(t *testing.T) (*portcc.Dataset, *portcc.Model) {
	t.Helper()
	if tinyModelFixture.ds == nil {
		s := portcc.NewSession(portcc.WithScale(portcc.TinyScale()))
		ds, err := s.GenerateDataset(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
		m, err := portcc.TrainModel(ds)
		if err != nil {
			t.Fatal(err)
		}
		tinyModelFixture.ds, tinyModelFixture.model = ds, m
	}
	return tinyModelFixture.ds, tinyModelFixture.model
}

// TestModelArtifactDeterministic pins the full train -> artifact ->
// load -> predict pipeline: re-saving produces byte-identical files
// (from the in-process model and from a loaded copy alike), and the
// loaded model predicts identically to the in-process one on every
// (program, arch) cell of the tiny grid - without a single ml.Train
// call on the artifact path.
func TestModelArtifactDeterministic(t *testing.T) {
	ds, model := tinyModel(t)
	dir := t.TempDir()
	p1, p2, p3 := filepath.Join(dir, "a.gob"), filepath.Join(dir, "b.gob"), filepath.Join(dir, "c.gob")

	info, err := portcc.SaveModel(p1, model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := portcc.SaveModel(p2, model, ds); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-saving the same model produced different bytes")
	}

	fp, err := ds.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if info.DatasetSHA256 != fp {
		t.Errorf("artifact dataset fingerprint %s != dataset fingerprint %s", info.DatasetSHA256, fp)
	}
	if got := portcc.ModelEval(info); got != ds.Cfg.Eval {
		t.Errorf("ModelEval(info) = %+v, want the dataset's %+v", got, ds.Cfg.Eval)
	}

	trainsBefore := ml.TrainCalls()
	loaded, info2, err := portcc.LoadModel(p1)
	if err != nil {
		t.Fatal(err)
	}
	if info2 != info {
		t.Errorf("loaded info %+v != saved info %+v", info2, info)
	}
	// A loaded model re-saves byte-identically too.
	if _, err := portcc.SaveModel(p3, loaded, ds); err != nil {
		t.Fatal(err)
	}
	b3, _ := os.ReadFile(p3)
	if !bytes.Equal(b1, b3) {
		t.Fatal("loaded model re-saved to different bytes")
	}

	nP, nA, _ := ds.Dims()
	for p := 0; p < nP; p++ {
		for a := 0; a < nA; a++ {
			want := model.Predict(ds.Features[p][a])
			got := loaded.Predict(ds.Features[p][a])
			if got != want {
				t.Fatalf("%s/arch%d: loaded model predicts %s, in-process %s",
					ds.Programs[p], a, got.Key(), want.Key())
			}
		}
	}
	if d := ml.TrainCalls() - trainsBefore; d != 0 {
		t.Fatalf("artifact load + predict ran %d ml.Train calls, want 0", d)
	}
}

// TestOptimizeForMatchesDatasetFeatures pins the deployment contract
// behind cmd/portcc -model and cmd/portccs: a session profiling with
// the artifact's embedded workload parameters measures the same
// feature vector the training run did, so OptimizeFor agrees with a
// direct prediction on the dataset's stored features.
func TestOptimizeForMatchesDatasetFeatures(t *testing.T) {
	ds, model := tinyModel(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if _, err := portcc.SaveModel(path, model, ds); err != nil {
		t.Fatal(err)
	}
	loaded, info, err := portcc.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}

	trainsBefore := ml.TrainCalls()
	s := portcc.NewSession(portcc.WithEvalConfig(portcc.ModelEval(info)))
	for _, p := range []int{0, len(ds.Programs) - 1} {
		for _, a := range []int{0, len(ds.Archs) - 1} {
			got, err := s.OptimizeFor(context.Background(), ds.Programs[p], ds.Archs[a], loaded)
			if err != nil {
				t.Fatal(err)
			}
			want := model.Predict(ds.Features[p][a])
			if got != want {
				t.Fatalf("%s/arch%d: OptimizeFor chose %s, dataset-feature prediction %s",
					ds.Programs[p], a, got.Key(), want.Key())
			}
		}
	}
	if d := ml.TrainCalls() - trainsBefore; d != 0 {
		t.Fatalf("the artifact deployment path ran %d ml.Train calls, want 0", d)
	}
}

// TestOptimizeForRefusesWrongWidthModel: an artifact of another feature
// width is a legal file (LoadModel takes it) but cannot meet a profile
// run's vector - a typed error before any profiling, not an index panic.
func TestOptimizeForRefusesWrongWidthModel(t *testing.T) {
	narrow := ml.Train([]ml.TrainingPair{{Prog: "crc", X: []float64{1, 2}}})
	_, err := portcc.NewSession().OptimizeFor(context.Background(), "crc", portcc.XScale(), narrow)
	if !errors.Is(err, portcc.ErrInvalidConfig) {
		t.Fatalf("OptimizeFor with a 2-wide model: err = %v, want ErrInvalidConfig", err)
	}
}

func TestLoadModelRejectsDatasetFile(t *testing.T) {
	ds, _ := tinyModel(t)
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	_, _, err := portcc.LoadModel(path)
	if !errors.Is(err, portcc.ErrModelVersion) {
		t.Fatalf("loading a dataset file as a model: err = %v, want ErrModelVersion", err)
	}
}
