package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"portcc/internal/codegen"
	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

const versionsPath = "testdata/versions.json"

// versionRecord is what the result store's keys assume: under these
// constants the suite compiles to these binaries, which generate these
// event streams, which replay to these counters.
type versionRecord struct {
	Comment       string `json:"comment"`
	CoreVersion   int    `json:"core_version"`
	TraceVersion  int    `json:"trace_version"`
	ReplayVersion int    `json:"replay_version"`
	Fingerprints  string `json:"fingerprints_sha256"`
	Streams       string `json:"streams_sha256"`
	Results       string `json:"results_sha256"`
}

// behaviourDigests compiles every program of the suite under -O3, the
// zero configuration and six seeded settings, generates one run of each
// binary and replays it on the XScale, digesting the three stages
// separately.
func behaviourDigests(t *testing.T) (fps, streams, results string) {
	t.Helper()
	cfgs := []opt.Config{opt.O3(), {}}
	rng := rand.New(rand.NewSource(2009))
	for len(cfgs) < 8 {
		cfgs = append(cfgs, opt.Random(rng))
	}
	hf, hs, hr := sha256.New(), sha256.New(), sha256.New()
	var buf []byte
	for _, name := range prog.Names() {
		m := prog.MustBuild(name)
		for i := range cfgs {
			bin, err := core.Compile(m, &cfgs[i])
			if err != nil {
				t.Fatalf("%s under %s: %v", name, cfgs[i].Key(), err)
			}
			var fp codegen.Fingerprint
			fp, buf = codegen.FingerprintInto(bin, buf)
			hf.Write(fp[:])

			tr := trace.GenerateInto(trace.Get(0), bin, trace.Config{Runs: 1, MaxInsns: 20_000, Seed: 1})
			buf = buf[:0]
			for _, e := range tr.Events {
				buf = binary.LittleEndian.AppendUint32(buf, e.PC)
				buf = binary.LittleEndian.AppendUint32(buf, e.Addr)
				buf = append(buf, e.Op, e.DistLoad, e.DistFU, e.FULat, e.Flags)
			}
			hs.Write(buf)
			fmt.Fprintln(hs, tr.OpCount, tr.RegReads, tr.RegWrites, tr.Branches, tr.MemOps, tr.Restarts, tr.Runs, tr.Truncated)

			hr.Write(encodeResults([]cpu.Result{cpu.Simulate(tr, uarch.XScale())}))
			trace.Put(tr)
		}
	}
	sum := func(b []byte) string { return hex.EncodeToString(b) }
	return sum(hf.Sum(nil)), sum(hs.Sum(nil)), sum(hr.Sum(nil))
}

// TestVersionsPinBehaviour holds the three version constants in the
// result store's keys to the behaviour they name. A stored entry is
// only "the same computation" while core.Version, trace.Version and
// cpu.ReplayVersion change whenever binaries, event streams or replay
// counters do; this test digests all three over the whole suite and
// compares with the committed record, which stores each digest beside
// the constants it was taken under. A digest that moved under unchanged
// constants fails, naming the constant to bump - and re-recording
//
//	PORTCC_UPDATE_GOLDEN=1 go test ./internal/dataset -run TestVersionsPinBehaviour
//
// refuses the same, so the record cannot be refreshed around a missing
// bump. (A stage's digest may move without its own constant when an
// earlier stage's constant moved: new binaries make new streams.)
func TestVersionsPinBehaviour(t *testing.T) {
	got := versionRecord{
		Comment:       "suite x {-O3, zero config, 6 seeded settings}: binary fingerprints, 1-run event streams, XScale results, beside the version constants they were taken under; see TestVersionsPinBehaviour",
		CoreVersion:   core.Version,
		TraceVersion:  trace.Version,
		ReplayVersion: cpu.ReplayVersion,
	}
	got.Fingerprints, got.Streams, got.Results = behaviourDigests(t)

	update := os.Getenv("PORTCC_UPDATE_GOLDEN") != ""
	data, err := os.ReadFile(versionsPath)
	if err != nil && !update {
		t.Fatalf("missing version record (run with PORTCC_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if err == nil {
		var want versionRecord
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		sameCore := got.CoreVersion == want.CoreVersion
		sameTrace := sameCore && got.TraceVersion == want.TraceVersion
		sameReplay := sameTrace && got.ReplayVersion == want.ReplayVersion
		switch {
		case sameCore && got.Fingerprints != want.Fingerprints:
			t.Fatalf("the suite's binaries changed under core.Version %d: bump core.Version, or every compile-index block in every result store is a stale identity", core.Version)
		case sameTrace && got.Streams != want.Streams:
			t.Fatalf("event streams of unchanged binaries changed under trace.Version %d: bump trace.Version, or stored replays of the old streams stay reachable", trace.Version)
		case sameReplay && got.Results != want.Results:
			t.Fatalf("replay counters of unchanged streams changed under cpu.ReplayVersion %d: bump cpu.ReplayVersion, or stored results of the old model stay reachable", cpu.ReplayVersion)
		}
		if !update && got != want {
			t.Fatalf("version constants moved; re-record %s with PORTCC_UPDATE_GOLDEN=1\n got  %+v\n want %+v", versionsPath, got, want)
		}
	}
	if update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(versionsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", versionsPath)
	}
}
