package portcc_test

import (
	"context"
	"testing"

	"portcc"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	c := portcc.NewSession()
	arch := portcc.XScale()

	bin, err := c.Compile(ctx, "crc", portcc.O3())
	if err != nil {
		t.Fatal(err)
	}
	if bin.TotalBytes == 0 {
		t.Fatal("empty binary")
	}
	res, err := c.Run(ctx, "crc", portcc.O3(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.IPC() <= 0 || res.IPC() > 1 {
		t.Fatalf("implausible result: %d cycles, IPC %.2f", res.Cycles, res.IPC())
	}
	s, err := c.Speedup(ctx, "crc", portcc.O3(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("O3 vs O3 speedup %f, want exactly 1", s)
	}
}

func TestModelDeployment(t *testing.T) {
	// The Figure 2 path: train, profile once at -O3, predict, compile.
	scale := portcc.Scale{Name: "t", Programs: []string{"crc", "bitcnts", "search", "qsort"},
		NumArchs: 3, NumOpts: 12, TargetInsns: 5000, Seed: 9}
	ctx := context.Background()
	ds, err := scale.Generate(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	model, err := portcc.TrainModel(ds)
	if err != nil {
		t.Fatal(err)
	}
	c := portcc.NewSession()
	arch := portcc.XScale()
	arch.IL1Size = 8 << 10
	arch.IL1Assoc = 4
	cfg, err := c.OptimizeFor(ctx, "bitcnts", arch, model)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Speedup(ctx, "bitcnts", cfg, arch)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("deployment speedup %f", s)
	}
	t.Logf("model-predicted passes give %.3fx on bitcnts", s)
}

func TestProgramsList(t *testing.T) {
	names := portcc.Programs()
	if len(names) != 35 {
		t.Fatalf("%d programs, want 35", len(names))
	}
	if names[0] != "qsort" || names[34] != "search" {
		t.Error("Figure 4 ordering expected")
	}
}
