package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/dataset"
	"portcc/internal/features"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/sched"
	"portcc/internal/store"
	"portcc/internal/trace"
	"portcc/internal/uarch"
	"portcc/internal/wire"
)

// The layer probes: each times calls into one package's exported
// functions from outside, on inputs the workload itself uses, long
// enough for a stable rate. They run in the traced pass only.

// probeTime is how long one rate probe measures.
func probeTime(rc *runConfig) time.Duration {
	if rc.smoke {
		return 20 * time.Millisecond
	}
	return 300 * time.Millisecond
}

// rate calls step until d has passed and returns units per second;
// step reports how many units it did.
func rate(d time.Duration, step func() int) float64 {
	t0 := time.Now()
	units := 0
	for {
		units += step()
		if el := time.Since(t0); el >= d {
			return float64(units) / el.Seconds()
		}
	}
}

// probeCompile measures module building and the compile pipeline's two
// fixed points: -O3, and the zero setting, where only the unconditional
// steps run (local CSE, LICM, DCE, align, alloc, lower) - the
// pipeline's floor, mostly register allocation and code generation.
func probeCompile(m metrics, env *genEnv, rc *runConfig) {
	names := env.req.Programs
	t0 := time.Now()
	for _, name := range names {
		prog.MustBuild(name)
	}
	m.set("prog.build_ms", ms(time.Since(t0)))

	suite := func(cfg opt.Config) float64 {
		return rate(probeTime(rc), func() int {
			for _, name := range names {
				if _, err := core.Compile(env.modules[name], &cfg); err != nil {
					panic(err) // the suite compiles at every setting; a failure is a bug
				}
			}
			return len(names)
		})
	}
	m.set("core.compile_o3_per_s", suite(opt.O3()))
	m.set("core.compile_min_per_s", suite(opt.Config{}))

	o3 := opt.O3()
	size := 0
	for _, name := range names {
		bin, err := core.Compile(env.modules[name], &o3)
		if err != nil {
			panic(err)
		}
		size += bin.TotalBytes
	}
	m.set("codegen.image_bytes_o3", float64(size))
}

// o3Traces compiles the grid's programs at -O3 and generates one-run
// traces, the inputs of the replay probes.
func o3Traces(env *genEnv) []*trace.Trace {
	o3 := opt.O3()
	var traces []*trace.Trace
	for _, name := range env.req.Programs {
		bin, err := core.Compile(env.modules[name], &o3)
		if err != nil {
			panic(err) // the suite compiles at -O3; a failure is a bug
		}
		traces = append(traces, trace.Generate(bin, trace.Config{Runs: 1, MaxInsns: dataset.DefaultEvalConfig.MaxInsns, Seed: 1}))
	}
	return traces
}

// probeReplay measures the replay engines: sequential cpu.Simulate over
// the suite's -O3 traces on the XScale reference (whose summed cycle
// count is exact - a host-speed change must leave it identical), and
// the batched engine at one sweep worker over the fixed gs trace the
// repository's other replay records use.
func probeReplay(m metrics, env *genEnv, rc *runConfig, wide bool) {
	traces := o3Traces(env)
	xs := uarch.XScale()
	var cycles uint64
	events := 0
	for _, t := range traces {
		cycles += cpu.Simulate(t, xs).Cycles
		events += t.Insns()
	}
	m.set("cpu.sim_cycles_o3_xscale", float64(cycles))
	m.set("cpu.simulate_mev_per_s", rate(probeTime(rc), func() int {
		for _, t := range traces {
			cpu.Simulate(t, xs)
		}
		return events
	})/1e6)

	o3 := opt.O3()
	bin, err := core.Compile(prog.MustBuild("gs"), &o3)
	if err != nil {
		panic(err)
	}
	gs := trace.Generate(bin, trace.Config{Runs: 2, MaxInsns: 200_000, Seed: 1})
	batch := func(extended bool, n int) float64 {
		archs := uarch.Space{Extended: extended}.SampleN(rand.New(rand.NewSource(7)), n)
		return rate(probeTime(rc), func() int {
			cpu.SimulateBatchWith(gs, archs, 1)
			return gs.Insns() * len(archs)
		}) / 1e6
	}
	if wide {
		m.set("cpu.batch_mevc_per_s.a200", batch(false, 200))
		m.set("cpu.batch_mevc_per_s.ext200", batch(true, 200))
	} else {
		m.set("cpu.batch_mevc_per_s.a12", batch(false, 12))
	}
}

// probeModel measures the model layer at the dataset's pair count:
// fitting, the artifact round trip, and one mixture query with and
// without the leave-one-out mask.
func probeModel(m metrics, ds *dataset.Dataset, rc *runConfig) error {
	t0 := time.Now()
	pairs, err := ds.TrainingPairs()
	if err != nil {
		return err
	}
	m.set("ml.training_pairs_ms", ms(time.Since(t0)))
	t0 = time.Now()
	model := ml.Train(pairs)
	m.set("ml.train_ms", ms(time.Since(t0)))

	path := filepath.Join(rc.workdir, "probe-model.gob")
	t0 = time.Now()
	if err := ml.Save(path, model, ml.ArtifactInfo{Pairs: len(pairs)}); err != nil {
		return err
	}
	m.set("ml.save_ms", ms(time.Since(t0)))
	t0 = time.Now()
	if _, _, err := ml.Load(path); err != nil {
		return err
	}
	m.set("ml.load_ms", ms(time.Since(t0)))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("ml.artifact_bytes", float64(fi.Size()))

	i := 0
	next := func() *ml.TrainingPair { i++; return &pairs[i%len(pairs)] }
	m.set("ml.predict_us", 1e6/rate(probeTime(rc), func() int {
		model.Mixture(next().X)
		return 1
	}))
	m.set("ml.predict_loo_us", 1e6/rate(probeTime(rc), func() int {
		p := next()
		model.Mixture(p.X, ml.WithExclude(p.Prog, p.Arch))
		return 1
	}))

	o3 := opt.O3()
	bin, err := core.Compile(prog.MustBuild("gs"), &o3)
	if err != nil {
		return err
	}
	xs := uarch.XScale()
	r := cpu.Simulate(trace.Generate(bin, trace.Config{Runs: 1, Seed: 1}), xs)
	m.set("features.vector_ns", 1e9/rate(probeTime(rc)/4, func() int {
		features.Vector(xs, &r)
		return 1
	}))
	return nil
}

// resultPayloadBytes is the size of one stored 12-architecture replay:
// a count, then 18 counters and the energy per architecture.
const resultPayloadBytes = 8 + 12*19*8

func probeKey(i int) store.Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return store.KeyOf(b[:])
}

// probeStore measures the on-disk store with payloads the size of the
// paper-small grid's: fsynced puts, hits, clean misses, and re-opening
// the populated directory.
func probeStore(m metrics, rc *runConfig) error {
	n := 400
	if rc.smoke {
		n = 40
	}
	dir := filepath.Join(rc.workdir, "probe-store")
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	payload := make([]byte, resultPayloadBytes)
	rand.New(rand.NewSource(rc.seed)).Read(payload)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := st.Put(probeKey(i), payload); err != nil {
			return err
		}
	}
	m.set("store.put_per_s", float64(n)/time.Since(t0).Seconds())
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if got, ok, _ := st.Get(probeKey(i)); !ok || !bytes.Equal(got, payload) {
			return fmt.Errorf("store probe: entry %d did not round-trip", i)
		}
	}
	m.set("store.get_hit_per_s", float64(n)/time.Since(t0).Seconds())
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, ok, _ := st.Get(probeKey(n + i)); ok {
			return fmt.Errorf("store probe: phantom entry %d", n+i)
		}
	}
	m.set("store.get_miss_per_s", float64(n)/time.Since(t0).Seconds())
	if err := st.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	if st, err = store.Open(store.Options{Dir: dir}); err != nil {
		return err
	}
	m.set("store.open_ms", ms(time.Since(t0)))
	if got := st.Stats().Entries; got != n {
		return fmt.Errorf("store probe: reopened with %d entries, want %d", got, n)
	}

	// The same entries through a store service on loopback: one request
	// in flight for the round-trip times, sixteen for the pipelined rate.
	svc, err := startStoreService(st, dataset.FormatVersion)
	if err != nil {
		return err
	}
	defer svc.stop()
	remote := store.NewRemote(store.RemoteOptions{Addr: svc.addr, Format: dataset.FormatVersion})
	defer remote.Close()
	var get, put []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, ok, _ := remote.Get(probeKey(i)); !ok {
			return fmt.Errorf("store probe: remote miss on entry %d", i)
		}
		get = append(get, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for i := 0; i < n/4; i++ {
		t0 := time.Now()
		if err := remote.Put(probeKey(2*n+i), payload); err != nil {
			return err
		}
		put = append(put, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m.setMedian("store.remote_get_rtt_us", get)
	m.setMedian("store.remote_put_rtt_us", put)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 = time.Now()
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < 4*n; i = int(next.Add(1)) - 1 {
				remote.Get(probeKey(i % n))
			}
		}()
	}
	wg.Wait()
	m.set("store.remote_get_pipelined_per_s", float64(4*n)/time.Since(t0).Seconds())
	if rs := remote.Stats(); rs.RemoteErrors != 0 || rs.RemoteMisses != 0 {
		return fmt.Errorf("store probe: remote ledger %+v, want no misses and no errors", rs)
	}
	return st.Close()
}

// storeService is an in-process store service on a loopback listener.
type storeService struct {
	addr   string
	sv     *store.Service
	cancel context.CancelFunc
	done   chan error
}

func startStoreService(b store.Backend, format int) (*storeService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &storeService{
		addr:   ln.Addr().String(),
		sv:     store.NewService(b, store.ServiceConfig{Format: format}),
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { s.done <- s.sv.Serve(ctx, ln) }()
	return s, nil
}

// stop hard-stops the service and waits for its serve loop to exit.
func (s *storeService) stop() {
	s.cancel()
	<-s.done
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

type readWriter struct {
	io.Reader
	io.Writer
}

// probeWire measures the frame codec on a real result frame - one
// ExploreResult over the grid's architectures - and a frame round trip
// over loopback TCP.
func probeWire(m metrics, rc *runConfig, res dataset.ExploreResult) error {
	frame := &wire.Frame{Result: &wire.Result{Index: 1, Payload: res}}
	const n = 2000

	// The first frame of a gob stream carries the type descriptors; send
	// it before counting so the figures are steady-state.
	cw := &countingWriter{}
	enc := wire.NewConn(readWriter{Writer: cw})
	if err := enc.Send(frame); err != nil {
		return err
	}
	first := cw.n
	m.set("wire.result_encode_per_s", rate(probeTime(rc), func() int {
		enc.Send(frame)
		return 1
	}))
	var buf bytes.Buffer
	bc := wire.NewConn(readWriter{Writer: &buf})
	for i := 0; i <= n; i++ {
		if err := bc.Send(frame); err != nil {
			return err
		}
	}
	m.set("wire.result_frame_bytes", float64(buf.Len()-first)/n)
	dec := wire.NewConn(readWriter{Reader: &buf})
	if _, err := dec.Recv(); err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := dec.Recv(); err != nil {
			return err
		}
	}
	m.set("wire.result_decode_per_s", n/time.Since(t0).Seconds())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		for {
			f, err := c.Recv()
			if err != nil {
				echoed <- nil // the client hung up: done
				return
			}
			if err := c.Send(f); err != nil {
				echoed <- err
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	c := wire.NewConn(nc)
	var rtt []float64
	for i := 0; i < n/4; i++ {
		t0 := time.Now()
		if err := c.Send(frame); err != nil {
			return err
		}
		if _, err := c.Recv(); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	nc.Close()
	if err := <-echoed; err != nil {
		return err
	}
	m.setMedian("wire.roundtrip_us", rtt[1:])
	return nil
}

// countingListener counts accepted connections: one per shard per run
// is the clean figure, anything above it is a redial.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// shard is an in-process worker daemon on a loopback listener.
type shard struct {
	addr   string
	ln     *countingListener
	cells  atomic.Int64 // cells the daemon executed
	cancel context.CancelFunc
	done   chan struct{}
}

// startShard serves cfg as cmd/portccd would, counting the cells it
// executes so requeued (twice-executed) cells are visible from outside.
func startShard(cfg sched.ServeConfig) (*shard, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &shard{addr: ln.Addr().String(), ln: &countingListener{Listener: ln}, cancel: cancel, done: make(chan struct{})}
	newRun := cfg.NewRun
	cfg.NewRun = func(spec any) (func(slot, index int) (any, error), error) {
		run, err := newRun(spec)
		if err != nil {
			return nil, err
		}
		return func(slot, index int) (any, error) {
			s.cells.Add(1)
			return run(slot, index)
		}, nil
	}
	go func() {
		defer close(s.done)
		sched.Serve(ctx, s.ln, cfg)
	}()
	return s, nil
}

// stop hard-stops the daemon and waits for its serve loop to exit.
func (s *shard) stop() {
	s.cancel()
	<-s.done
}

// probeSched measures the scheduler moving no-op cells: the in-process
// pool, and one shard daemon behind the TCP executor.
func probeSched(m metrics, rc *runConfig) error {
	noop := func(slot, index int) (any, error) { return dataset.ExploreResult{}, nil }
	cells := 200_000
	if rc.smoke {
		cells = 5_000
	}
	var sink atomic.Int64
	t0 := time.Now()
	_, err := sched.Local{Workers: rc.procs}.Execute(context.Background(),
		sched.Job{Cells: cells, Run: noop}, func(int, any) { sink.Add(1) })
	if err != nil {
		return err
	}
	m.set("sched.local_ns_per_cell", float64(time.Since(t0).Nanoseconds())/float64(cells))

	sh, err := startShard(sched.ServeConfig{
		Format:  dataset.FormatVersion,
		Workers: 1,
		NewRun:  func(any) (func(slot, index int) (any, error), error) { return noop, nil },
	})
	if err != nil {
		return err
	}
	defer sh.stop()
	cells /= 10
	t0 = time.Now()
	done, err := (&sched.Remote{Addrs: []string{sh.addr}}).Execute(context.Background(),
		sched.Job{Spec: dataset.ExploreRequest{}, Cells: cells, Format: dataset.FormatVersion},
		func(int, any) { sink.Add(1) })
	if err != nil {
		return err
	}
	if done != cells {
		return fmt.Errorf("sched probe: %d of %d remote cells completed", done, cells)
	}
	m.set("sched.remote_cells_per_s", float64(cells)/time.Since(t0).Seconds())
	return nil
}
