package main

import (
	"context"
	"math/rand"
	"os"
	"time"

	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/dataset"
	"portcc/internal/opt"
	"portcc/internal/store"
	"portcc/internal/trace"
)

// fleetShards is the fleet's size: two one-worker shard daemons.
const fleetShards = 2

// fleetEnv is the fleet-store workload after set-up: the paper-small
// grid regenerated once into an empty local store (the cold run, every
// replay computed and committed with an fsync), that store served over
// loopback TCP by a store service, and two shard daemons with no local
// tier whose every lookup goes to the service.
type fleetEnv struct {
	*genEnv
	storeDir string
	cold     store.Stats
	coldMS   float64
	coldFP   string

	backing *store.Store
	svc     *storeService
	remotes []*dataset.ResultStore
	shards  []*shard
	// fleetRuns counts regenerations sent to the shards, for the
	// redial and requeue ledgers.
	fleetRuns int
}

// setupFleet builds the fleet. serviceFormat is the schema version the
// store service announces: dataset.FormatVersion, except in the test
// that checks a skewed service is refused.
func setupFleet(ctx context.Context, rc *runConfig, serviceFormat int) (*fleetEnv, error) {
	g, err := setupGrid(paperSmallGrid(rc.smoke), rc.seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.workdir, "store-")
	if err != nil {
		return nil, err
	}
	env := &fleetEnv{genEnv: g, storeDir: dir}
	ok := false
	defer func() {
		if !ok {
			env.teardown()
		}
	}()

	rs, err := dataset.OpenResultStore(dir, 0)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ds, err := dataset.GenerateWith(ctx, g.cfg, dataset.ExploreOptions{Store: rs})
	env.coldMS = ms(time.Since(t0))
	env.cold = rs.Stats()
	if cerr := rs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if env.coldFP, err = ds.Fingerprint(); err != nil {
		return nil, err
	}

	if env.backing, err = store.Open(store.Options{Dir: dir}); err != nil {
		return nil, err
	}
	if env.svc, err = startStoreService(env.backing, serviceFormat); err != nil {
		return nil, err
	}
	for i := 0; i < fleetShards; i++ {
		remote, err := dataset.OpenResultStoreRemote("", 0, env.svc.addr)
		if err != nil {
			return nil, err
		}
		env.remotes = append(env.remotes, remote)
		sh, err := startShard(dataset.ServeConfigStore(1, 0, 0, remote))
		if err != nil {
			return nil, err
		}
		env.shards = append(env.shards, sh)
	}
	ok = true
	return env, nil
}

// teardown stops the daemons, then the service, and waits for each.
func (env *fleetEnv) teardown() {
	for _, sh := range env.shards {
		sh.stop()
	}
	for _, r := range env.remotes {
		r.Close()
	}
	if env.svc != nil {
		env.svc.stop()
	}
	if env.backing != nil {
		env.backing.Close()
	}
}

// checkCold holds the cold run to its ledger: every replay missed, was
// computed and committed.
func (env *fleetEnv) checkCold(ck *checker) {
	c := env.cold
	if c.Entries == 0 || c.Hits != 0 || int(c.Misses) != c.Entries || int(c.Puts) != c.Entries || c.PutErrors != 0 {
		ck.failf("cold store ledger %+v: want every entry missed once and committed once", c)
	}
}

// regenWarm regenerates the grid from the populated local store and
// refuses a run that recomputed anything.
func (env *fleetEnv) regenWarm(ctx context.Context, ck *checker) (ds *dataset.Dataset, st store.Stats, d time.Duration, err error) {
	rs, err := dataset.OpenResultStore(env.storeDir, 0)
	if err != nil {
		return nil, st, 0, err
	}
	t0 := time.Now()
	ds, err = dataset.GenerateWith(ctx, env.cfg, dataset.ExploreOptions{Store: rs})
	d = time.Since(t0)
	st = rs.Stats()
	if cerr := rs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, st, d, err
	}
	if st.Misses != 0 || int(st.Hits) < env.cold.Entries {
		ck.failf("warm regeneration recomputed: ledger %+v, want 0 misses and >= %d hits", st, env.cold.Entries)
	}
	return ds, st, d, nil
}

// remoteLedger sums the shard daemons' store-service counters.
func (env *fleetEnv) remoteLedger() (st store.Stats) {
	for _, r := range env.remotes {
		s := r.Stats()
		st.RemoteHits += s.RemoteHits
		st.RemoteMisses += s.RemoteMisses
		st.RemoteErrors += s.RemoteErrors
	}
	return st
}

// regenFleet regenerates the grid on the two shard daemons. Their
// stores have no local tier, so every replay must be answered by the
// service: a service that degrades lookups to misses (a format skew
// does exactly that, silently, and still yields the right dataset) is a
// broken fleet, and the run is refused rather than timed.
func (env *fleetEnv) regenFleet(ctx context.Context, ck *checker) (ds *dataset.Dataset, delta store.Stats, d time.Duration, err error) {
	addrs := make([]string, len(env.shards))
	for i, sh := range env.shards {
		addrs[i] = sh.addr
	}
	before := env.remoteLedger()
	t0 := time.Now()
	ds, err = dataset.GenerateWith(ctx, env.cfg, dataset.ExploreOptions{Shards: addrs})
	d = time.Since(t0)
	if err != nil {
		return nil, delta, d, err
	}
	env.fleetRuns++
	after := env.remoteLedger()
	delta = store.Stats{
		RemoteHits:   after.RemoteHits - before.RemoteHits,
		RemoteMisses: after.RemoteMisses - before.RemoteMisses,
		RemoteErrors: after.RemoteErrors - before.RemoteErrors,
	}
	if delta.RemoteErrors != 0 || delta.RemoteMisses != 0 || int(delta.RemoteHits) < env.cold.Entries {
		ck.failf("fleet regeneration was not answered by the store service: %d remote hits, %d misses, %d errors, want >= %d hits and nothing else",
			delta.RemoteHits, delta.RemoteMisses, delta.RemoteErrors, env.cold.Entries)
	}
	return ds, delta, d, nil
}

// schedLedger reports connections beyond one per shard per run
// (redials) and cells executed beyond the grid's (requeues).
func (env *fleetEnv) schedLedger() (redials, requeues int64) {
	for _, sh := range env.shards {
		redials += sh.ln.accepted.Load()
		requeues += sh.cells.Load()
	}
	redials -= int64(len(env.shards) * env.fleetRuns)
	requeues -= int64(env.req.Cells() * env.fleetRuns)
	return redials, requeues
}

func (env *fleetEnv) checkSched(ck *checker) {
	if redials, requeues := env.schedLedger(); redials != 0 || requeues != 0 {
		ck.failf("healthy fleet redialled %d times and requeued %d cells, want 0 and 0", redials, requeues)
	}
}

// runFleet is the untraced fleet-store pass. The cold run is set-up
// (it is what populating a store costs, and setup_s gates it); an
// operation is one resume cycle: the warm local regeneration, then the
// regeneration by the fleet.
func runFleet(ctx context.Context, rc *runConfig) (*result, error) {
	return runFleetWith(ctx, rc, dataset.FormatVersion)
}

func runFleetWith(ctx context.Context, rc *runConfig, serviceFormat int) (*result, error) {
	cal := newCalibrator(rc)
	env, setup, err := timeSetup(cal,
		func() (*fleetEnv, error) { return setupFleet(ctx, rc, serviceFormat) },
		(*fleetEnv).teardown)
	if err != nil {
		return nil, err
	}
	defer env.teardown()
	res := newResult()
	ck := &res.checker
	env.checkCold(ck)
	cells := env.req.Cells()

	var warmMS, fleetMS []float64
	fps := []string{env.coldFP}
	var last *dataset.Dataset
	p, err := timedPasses(rc, cal, func() error {
		warm, _, wd, err := env.regenWarm(ctx, ck)
		if err != nil {
			return err
		}
		fleet, _, fd, err := env.regenFleet(ctx, ck)
		if err != nil {
			return err
		}
		warmMS, fleetMS = append(warmMS, ms(wd)), append(fleetMS, ms(fd))
		for _, ds := range []*dataset.Dataset{warm, fleet} {
			fp, err := ds.Fingerprint()
			if err != nil {
				return err
			}
			fps = append(fps, fp)
		}
		last = fleet
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, fp := range fps[1:] {
		if fp != fps[0] {
			ck.failf("dataset fingerprint differs between cold, warm and fleet regenerations: %s vs %s", fp, fps[0])
		}
	}
	env.checkSched(ck)
	// The cold dataset went through the store on its way in and every
	// later one came back out of it; the fingerprints being equal, one
	// independent check covers them all.
	if err := verifyCells(last, env.modules, rand.New(rand.NewSource(rc.seed)), rc.verifyCells()); err != nil {
		ck.failf("%v", err)
	}

	res.Fingerprint = env.coldFP
	res.Detail["raw_regen_cold_ms"] = env.coldMS
	res.Detail["raw_regen_warm_ms"] = median(warmMS)
	res.Detail["raw_regen_fleet_ms"] = median(fleetMS)
	batchMetrics(res, setup, p, 2*cells)
	return res, nil
}

// tracedFleet is the traced fleet-store pass: one cold, one warm and
// one fleet regeneration for their times and ledgers, the staged walk
// with the store's Put and Get in it, and the store, wire and scheduler
// probes.
func tracedFleet(ctx context.Context, rc *runConfig, tr *tracer) (*result, error) {
	env, err := setupFleet(ctx, rc, dataset.FormatVersion)
	if err != nil {
		return nil, err
	}
	defer env.teardown()
	res := newResult()
	ck := &res.checker
	m := res.Metrics
	env.checkCold(ck)

	_, warm, wd, err := env.regenWarm(ctx, ck)
	if err != nil {
		return nil, err
	}
	_, fleet, fd, err := env.regenFleet(ctx, ck)
	if err != nil {
		return nil, err
	}
	env.checkSched(ck)
	redials, requeues := env.schedLedger()
	m.set("dataset.regen_cold_ms", env.coldMS)
	m.set("dataset.regen_warm_ms", ms(wd))
	m.set("dataset.regen_fleet_ms", ms(fd))
	m.set("store.entries", float64(env.cold.Entries))
	m.set("store.bytes", float64(env.cold.Bytes))
	m.set("store.put_errors", float64(env.cold.PutErrors))
	m.set("store.hits", float64(warm.Hits))
	m.set("store.misses", float64(warm.Misses))
	m.set("store.remote_hits", float64(fleet.RemoteHits))
	m.set("store.remote_errors", float64(fleet.RemoteErrors))
	m.set("sched.redials", float64(redials))
	m.set("sched.requeues", float64(requeues))
	res.Fingerprint = env.coldFP

	// The staged walk, twice over the same draw against a store of its
	// own: the first walk misses, computes and commits, the second is
	// answered from disk - a cold and a warm window per program.
	ds, err := dataset.GenerateWith(ctx, env.cfg, dataset.ExploreOptions{})
	if err != nil {
		return nil, err
	}
	draw := drawPrograms(rc, len(env.req.Programs))
	stagedDir, err := os.MkdirTemp(rc.workdir, "staged-store-")
	if err != nil {
		return nil, err
	}
	rs, err := dataset.OpenResultStore(stagedDir, 0)
	if err != nil {
		return nil, err
	}
	st := &stagedPass{tr: tr, ds: ds, env: env.genEnv, rs: rs}
	for pass := 0; pass < 2; pass++ {
		if err := st.walk(draw); err != nil {
			ck.failf("staged pass %d: %v", pass, err)
		}
	}
	if s := rs.Stats(); s.Hits != s.Puts || s.PutErrors != 0 {
		ck.failf("staged store ledger %+v: want every committed entry hit once", s)
	}
	if err := rs.Close(); err != nil {
		return nil, err
	}
	st.report(m)
	instDir, err := os.MkdirTemp(rc.workdir, "inst-store-")
	if err != nil {
		return nil, err
	}
	if err := instrumentedPass(m, env.genEnv, draw, st.rootTotal(), instDir); err != nil {
		return nil, err
	}

	if err := probeStore(m, rc); err != nil {
		return nil, err
	}
	if err := probeWire(m, rc, sampleResult(env.genEnv)); err != nil {
		return nil, err
	}
	if err := probeSched(m, rc); err != nil {
		return nil, err
	}
	res.Attempted = 2 * len(draw) * len(env.req.Opts)
	if !ck.ok() {
		res.Failed = res.Attempted
	}
	return res, nil
}

// sampleResult is one real work-cell result over the grid's
// architectures, the payload the wire probe frames.
func sampleResult(env *genEnv) dataset.ExploreResult {
	name := env.req.Programs[0]
	o3 := opt.O3()
	bin, err := core.Compile(env.modules[name], &o3)
	if err != nil {
		panic(err)
	}
	tr := trace.Generate(bin, trace.Config{Runs: 1, Seed: 1})
	return dataset.ExploreResult{
		Program: name, Config: o3, Runs: 1,
		Results: cpu.SimulateBatchWith(tr, env.req.Archs, 1),
	}
}
