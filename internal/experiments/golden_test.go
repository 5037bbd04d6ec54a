package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"portcc/internal/dataset"
)

// golden is the committed fixture: content digests of the tiny-scale
// dataset and of the full expgen -fig all rendering surface derived from
// it. Any engine change that silently alters results - compiler passes,
// trace generation, the replay engines, sampling, the ML pipeline -
// changes a digest and fails plain `go test ./...` locally, instead of
// surfacing only in the CI byte-compare jobs.
type golden struct {
	Scale          string `json:"scale"`
	DatasetSHA256  string `json:"dataset_sha256"`
	ExtendedSHA256 string `json:"extended_dataset_sha256"`
	FiguresSHA256  string `json:"figures_sha256"`
	Comment        string `json:"comment"`
}

const goldenPath = "testdata/golden.json"

// datasetDigest is the dataset's Fingerprint: the sha256 of the bytes
// Save writes.
func datasetDigest(t *testing.T, ds *dataset.Dataset) string {
	t.Helper()
	fp, err := ds.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// renderAll concatenates every rendering cmd/expgen's -fig all emits -
// static tables, the dataset figures, the leave-one-out prediction
// figures, iterations-to-match, the ablation and the extended-space
// Figure 10 - into one deterministic document.
func renderAll(t *testing.T, ctx context.Context, ds, eds *dataset.Dataset) string {
	t.Helper()
	var b strings.Builder
	t1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(t1)
	b.WriteString(Table2())
	b.WriteString(Figure3())

	f1, err := Figure1(ctx, ds, dataset.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(f1.Render())
	b.WriteString(Figure4(ds).Render())

	pr, err := Predict(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(Figure5(pr).Render())
	b.WriteString(Figure6(pr).Render())
	b.WriteString(Figure7(pr).Render())

	h8 := Figure8(ds)
	b.WriteString(h8.Render())
	b.WriteString(strings.Join(h8.ColLabels, " ") + "\n")
	h9 := Figure9(ds)
	b.WriteString(h9.Render())
	b.WriteString(strings.Join(h9.ColLabels, " ") + "\n")

	b.WriteString(IterationsToMatch(pr).Render())

	ab, err := Ablation(ctx, ds, dataset.ExploreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(ab.Render())

	epr, err := Predict(ctx, eds)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(Figure10(epr).Render())
	return b.String()
}

// TestGoldenTinyFixture regenerates the tiny-scale training dataset (base
// and extended spaces) and the complete figure surface, and compares
// their sha256 digests against testdata/golden.json. Regenerate the
// fixture after an intentional result change with:
//
//	PORTCC_UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenTinyFixture
func TestGoldenTinyFixture(t *testing.T) {
	ctx := context.Background()
	ds, err := Tiny.Generate(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	eds, err := Tiny.Generate(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	got := golden{
		Scale:          Tiny.Name,
		DatasetSHA256:  datasetDigest(t, ds),
		ExtendedSHA256: datasetDigest(t, eds),
	}
	// The fixture's datasets are legitimate files: Load's validation must
	// accept them and hand back the same bytes.
	for name, d := range map[string]*dataset.Dataset{"base": ds, "extended": eds} {
		path := filepath.Join(t.TempDir(), name+".bin")
		if err := d.Save(path); err != nil {
			t.Fatal(err)
		}
		back, err := dataset.Load(path)
		if err != nil {
			t.Fatalf("%s dataset does not load: %v", name, err)
		}
		if datasetDigest(t, back) != datasetDigest(t, d) {
			t.Errorf("%s dataset changed across Save and Load", name)
		}
	}
	figs := renderAll(t, ctx, ds, eds)
	sum := sha256.Sum256([]byte(figs))
	got.FiguresSHA256 = hex.EncodeToString(sum[:])

	if os.Getenv("PORTCC_UPDATE_GOLDEN") != "" {
		got.Comment = "tiny-scale dataset + expgen -fig all digests; regenerate with PORTCC_UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenTinyFixture"
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with PORTCC_UPDATE_GOLDEN=1 to create): %v", err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	fail := func(name, got, want string) {
		t.Errorf("%s digest changed:\n  got  %s\n  want %s\n"+
			"The tiny-scale results no longer match the committed fixture - an engine\n"+
			"change altered generated data. If intentional, update %s\n"+
			"(PORTCC_UPDATE_GOLDEN=1) and call out the result change in the PR.",
			name, got, want, goldenPath)
	}
	if got.DatasetSHA256 != want.DatasetSHA256 {
		fail("dataset", got.DatasetSHA256, want.DatasetSHA256)
	}
	if got.ExtendedSHA256 != want.ExtendedSHA256 {
		fail("extended dataset", got.ExtendedSHA256, want.ExtendedSHA256)
	}
	if got.FiguresSHA256 != want.FiguresSHA256 {
		fail("figures", got.FiguresSHA256, want.FiguresSHA256)
	}
}
