// soak is the trace-driven soak engine: simulated client machines replay
// declarative workload mixes against a DFS-exported SFS over a faulty
// network while the storage device loses power again and again. After
// every cut the engine runs recovery the way an operator would — fsck with
// repair, then a fresh mount — and requires a clean image plus
// byte-identical content for every file the last checkpoint made durable.
//
//	soak -dur 60s -crashes 20   # the CI smoke configuration
//	soak -dur 10m               # longer
//	soak -dur 60s -seed 7       # replay the run a failure named
//
// One soak round is: mount + verify the previous round's durable
// snapshot, serve DFS, build the client machines, replay one trace per client
// (burst 1), checkpoint (quiesce + SyncFS + content snapshot), replay a
// second burst with the power-cut trap armed, cut, tear everything down,
// fsck. Files mutated after the checkpoint are exempt from verification
// (their fate is legitimately ambiguous); everything else must come back
// bit-for-bit. Each round also archives a cold file that is never touched
// again, so the verified set grows and the check can never become vacuous.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"springfs"
	"springfs/internal/blockdev"
	"springfs/internal/dfs"
	"springfs/internal/disklayer"
	"springfs/internal/naming"
	"springfs/internal/unixapi"
)

// The fault mix every soak has run with: four client machines, one
// message in a hundred dropped, one in twenty delayed.
const (
	soakClients = 4
	soakDrop    = 0.01
	soakDelay   = 0.05
)

type soakConfig struct {
	dur     time.Duration
	crashes int // minimum power cuts before the soak may end
	seed    int64
}

func main() {
	var cfg soakConfig
	flag.DurationVar(&cfg.dur, "dur", 60*time.Second, "run for at least this long")
	flag.IntVar(&cfg.crashes, "crashes", 20, "minimum power cuts before the soak may end")
	flag.Int64Var(&cfg.seed, "seed", 1, "determinism seed; a failed run names the one to replay")
	flag.Parse()
	if err := runSoak(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
}

// soakOp is one step of a declarative workload trace.
type soakOp struct {
	kind  string // mkdir, create, write, append, read, readdir, stat, rename, unlink, truncate
	path  string
	path2 string // rename destination
	off   int64
	size  int64
	data  []byte
}

// mutates reports whether the op can change file system state.
func (o *soakOp) mutates() bool {
	switch o.kind {
	case "read", "readdir", "stat":
		return false
	}
	return true
}

// soakScenario is a named workload mix; gen produces one deterministic
// trace for a client working under dir.
type soakScenario struct {
	name string
	gen  func(rng *rand.Rand, dir string, round int) []soakOp
}

var soakScenarios = []soakScenario{
	{"metadata-churn", metadataChurnTrace},
	{"streaming", streamingTrace},
	{"random-io", randomIOTrace},
	{"compile-replay", compileReplayTrace},
}

// soakPattern is deterministic content for path/tag — regenerable by any
// round, so verification does not depend on remembering the bytes.
func soakPattern(path string, tag int64, size int64) []byte {
	seed := tag
	for _, c := range path {
		seed = seed*131 + int64(c)
	}
	out := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// metadataChurnTrace: namespace churn — mkdir, create, rename, unlink,
// readdir — with small files, the workload journaling exists for.
func metadataChurnTrace(rng *rand.Rand, dir string, round int) []soakOp {
	var ops []soakOp
	ops = append(ops, soakOp{kind: "mkdir", path: dir})
	sub := fmt.Sprintf("%s/d%d", dir, round%4)
	ops = append(ops, soakOp{kind: "mkdir", path: sub})
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("%s/f%d", sub, rng.Intn(12))
		switch rng.Intn(6) {
		case 0, 1:
			ops = append(ops, soakOp{kind: "create", path: name,
				data: soakPattern(name, int64(round*100+i), int64(64+rng.Intn(1024)))})
		case 2:
			ops = append(ops, soakOp{kind: "rename", path: name,
				path2: fmt.Sprintf("%s/g%d", sub, rng.Intn(12))})
		case 3:
			ops = append(ops, soakOp{kind: "unlink", path: name})
		case 4:
			ops = append(ops, soakOp{kind: "readdir", path: sub})
		case 5:
			ops = append(ops, soakOp{kind: "stat", path: name})
		}
	}
	return ops
}

// streamingTrace: large sequential writes then sequential reads — the
// read-ahead and clustered write-back path.
func streamingTrace(rng *rand.Rand, dir string, round int) []soakOp {
	var ops []soakOp
	ops = append(ops, soakOp{kind: "mkdir", path: dir})
	path := fmt.Sprintf("%s/stream.bin", dir)
	const chunk = 8192
	n := 8 + rng.Intn(8)
	for i := 0; i < n; i++ {
		ops = append(ops, soakOp{kind: "write", path: path, off: int64(i) * chunk,
			data: soakPattern(path, int64(round*1000+i), chunk)})
	}
	for i := 0; i < n; i++ {
		ops = append(ops, soakOp{kind: "read", path: path, off: int64(i) * chunk, size: chunk})
	}
	return ops
}

// randomIOTrace: small reads and writes at random offsets in a few
// fixed-size files, with occasional truncates.
func randomIOTrace(rng *rand.Rand, dir string, round int) []soakOp {
	var ops []soakOp
	ops = append(ops, soakOp{kind: "mkdir", path: dir})
	const fileSize = 128 << 10
	paths := []string{dir + "/rand0.bin", dir + "/rand1.bin"}
	for _, p := range paths {
		ops = append(ops, soakOp{kind: "create", path: p, data: soakPattern(p, int64(round), 4096)})
	}
	for i := 0; i < 60; i++ {
		p := paths[rng.Intn(len(paths))]
		off := rng.Int63n(fileSize - 4096)
		switch rng.Intn(4) {
		case 0, 1:
			ops = append(ops, soakOp{kind: "write", path: p, off: off,
				data: soakPattern(p, int64(round*10000+i), int64(512+rng.Intn(3584)))})
		case 2:
			ops = append(ops, soakOp{kind: "read", path: p, off: off, size: 4096})
		case 3:
			ops = append(ops, soakOp{kind: "truncate", path: p, size: rng.Int63n(fileSize)})
		}
	}
	return ops
}

// compileReplayTrace: a build-tree replay — read "sources", write an
// object to a temp name, rename it over the real one (the atomic-install
// idiom), and append to a shared build log through O_APPEND.
func compileReplayTrace(rng *rand.Rand, dir string, round int) []soakOp {
	var ops []soakOp
	ops = append(ops, soakOp{kind: "mkdir", path: dir})
	log := dir + "/build.log"
	for i := 0; i < 10; i++ {
		src := fmt.Sprintf("%s/src%d.c", dir, i)
		obj := fmt.Sprintf("%s/src%d.o", dir, i)
		tmp := obj + ".tmp"
		ops = append(ops,
			soakOp{kind: "create", path: src, data: soakPattern(src, int64(round), int64(256+rng.Intn(2048)))},
			soakOp{kind: "read", path: src, off: 0, size: 2304},
			soakOp{kind: "create", path: tmp, data: soakPattern(obj, int64(round*100+i), int64(512+rng.Intn(4096)))},
			soakOp{kind: "rename", path: tmp, path2: obj},
			soakOp{kind: "append", path: log, data: []byte(fmt.Sprintf("built %s (round %d)\n", obj, round))},
		)
		if rng.Intn(4) == 0 {
			ops = append(ops, soakOp{kind: "unlink", path: obj})
		}
	}
	ops = append(ops, soakOp{kind: "readdir", path: dir})
	return ops
}

// archiveTrace writes one cold file that no later trace ever touches: the
// permanently-verifiable payload each crash must preserve.
func archiveTrace(round int, seed int64) []soakOp {
	path := fmt.Sprintf("archive/r%d.bin", round)
	return []soakOp{
		{kind: "mkdir", path: "archive"},
		{kind: "create", path: path, data: soakPattern(path, seed, 16<<10)},
	}
}

// soakState is the driver's ground truth across rounds.
type soakState struct {
	cfg   soakConfig
	crash *blockdev.CrashDevice

	mu      sync.Mutex
	reg     map[string]bool              // every file path any trace has targeted
	durable map[string][sha256.Size]byte // content hashes at the last checkpoint
	dirty   map[string]bool              // paths mutated since the last checkpoint

	ops      int64
	opErrs   int64
	cuts     int
	verified int64
}

func (s *soakState) register(ops []soakOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range ops {
		op := &ops[i]
		if op.kind == "mkdir" || op.kind == "readdir" {
			continue
		}
		s.reg[op.path] = true
		if op.path2 != "" {
			s.reg[op.path2] = true
		}
	}
}

func (s *soakState) touch(op *soakOp) {
	if !op.mutates() {
		return
	}
	s.mu.Lock()
	s.dirty[op.path] = true
	if op.path2 != "" {
		s.dirty[op.path2] = true
	}
	s.mu.Unlock()
}

// execTrace replays one trace through a unix process. Every op is
// best-effort: under injected drops and power cuts, errors are expected
// and counted, and whether a faulted mutation applied is resolved by the
// dirty-set exemption, never by guessing.
func (s *soakState) execTrace(p *unixapi.Process, ops []soakOp) {
	note := func(err error) {
		s.mu.Lock()
		s.ops++
		if err != nil {
			s.opErrs++
		}
		s.mu.Unlock()
	}
	for i := range ops {
		op := &ops[i]
		s.touch(op)
		switch op.kind {
		case "mkdir":
			err := p.Mkdir(op.path)
			if err == unixapi.EEXIST {
				err = nil
			}
			note(err)
		case "create":
			fd, err := p.Open(op.path, unixapi.O_CREAT|unixapi.O_TRUNC|unixapi.O_WRONLY)
			if err == nil {
				_, err = p.Write(fd, op.data)
				p.Close(fd)
			}
			note(err)
		case "write":
			fd, err := p.Open(op.path, unixapi.O_CREAT|unixapi.O_WRONLY)
			if err == nil {
				_, err = p.Pwrite(fd, op.data, op.off)
				p.Close(fd)
			}
			note(err)
		case "append":
			fd, err := p.Open(op.path, unixapi.O_CREAT|unixapi.O_WRONLY|unixapi.O_APPEND)
			if err == nil {
				_, err = p.Write(fd, op.data)
				p.Close(fd)
			}
			note(err)
		case "read":
			fd, err := p.Open(op.path, unixapi.O_RDONLY)
			if err == nil {
				buf := make([]byte, op.size)
				_, err = p.Pread(fd, buf, op.off)
				p.Close(fd)
			}
			note(err)
		case "readdir":
			_, err := p.ReadDir(op.path)
			note(err)
		case "stat":
			_, err := p.Stat(op.path)
			note(err)
		case "rename":
			note(p.Rename(op.path, op.path2))
		case "unlink":
			note(p.Unlink(op.path))
		case "truncate":
			fd, err := p.Open(op.path, unixapi.O_WRONLY)
			if err == nil {
				err = p.Ftruncate(fd, op.size)
				p.Close(fd)
			}
			note(err)
		}
	}
}

// soakStack is one served incarnation of the home file system plus its
// remote clients: every node has built its Spec, and stopping a node closes
// its DFS server or client.
type soakStack struct {
	nodes []*springfs.Node // the home node first
	sfs   springfs.StackableFS
	procs []*unixapi.Process
}

func (st *soakStack) teardown() {
	for _, n := range st.nodes {
		n.Stop()
	}
}

// soakAddress is where the home node serves its SFS.
const soakAddress = "home:dfs"

// mountHome mounts the (recovered) image as an SFS on a fresh home node;
// on a network, the node also exports it over DFS.
func (s *soakState) mountHome(tag string, network *springfs.Network) (*springfs.Node, *springfs.Built, error) {
	node := springfs.NewNode("soak-home-" + tag)
	spec := springfs.Spec{Disks: []springfs.DiskSpec{{Name: "sfs", Device: s.crash}}}
	if network != nil {
		node.Join(network)
		spec.Layers = []springfs.LayerSpec{{Name: "dfs", Creator: "dfs_creator", On: []string{"sfs"},
			Config: map[string]string{"address": soakAddress}}}
	}
	b, err := node.Build(spec)
	if err != nil {
		node.Stop()
		return nil, nil, fmt.Errorf("mount: %w", err)
	}
	return node, b, nil
}

// verifyDurable checks every checkpointed-and-untouched file against its
// recorded hash, reading through the freshly mounted stack.
func (s *soakState) verifyDurable(sfs springfs.StackableFS) error {
	s.mu.Lock()
	durable := make(map[string][sha256.Size]byte, len(s.durable))
	for p, h := range s.durable {
		if !s.dirty[p] {
			durable[p] = h
		}
	}
	s.mu.Unlock()
	for path, want := range durable {
		data, err := springfs.ReadFile(sfs, path)
		if err != nil {
			return fmt.Errorf("durable file %s lost after crash: %w", path, err)
		}
		if sha256.Sum256(data) != want {
			return fmt.Errorf("durable file %s corrupted after crash (%d bytes)", path, len(data))
		}
		s.verified++
	}
	return nil
}

// checkpoint quiesces nothing (the caller already has), syncs everything
// to stable storage, and re-baselines the durable snapshot.
func (s *soakState) checkpoint(sfs springfs.StackableFS) error {
	if err := sfs.SyncFS(); err != nil {
		return fmt.Errorf("checkpoint sync: %w", err)
	}
	s.mu.Lock()
	reg := make([]string, 0, len(s.reg))
	for p := range s.reg {
		reg = append(reg, p)
	}
	s.mu.Unlock()
	durable := make(map[string][sha256.Size]byte, len(reg))
	for _, path := range reg {
		data, err := springfs.ReadFile(sfs, path)
		if err != nil {
			continue // unlinked, renamed away, or never created
		}
		durable[path] = sha256.Sum256(data)
	}
	s.mu.Lock()
	s.durable = durable
	s.dirty = make(map[string]bool)
	s.mu.Unlock()
	return nil
}

// serve mounts and exports the home stack on a fresh faulty network,
// verifies the previous round's durable files through it, and builds one
// client machine per simulated user.
func (s *soakState) serve(round int) (*soakStack, error) {
	network := springfs.NewNetwork(springfs.LANInstant)
	network.SetFaults(springfs.NetFaults{
		DropProb:   soakDrop,
		DelayProb:  soakDelay,
		ExtraDelay: 500 * time.Microsecond,
		Seed:       s.cfg.seed + int64(round),
	})
	home, hb, err := s.mountHome(fmt.Sprintf("r%d", round), network)
	if err != nil {
		return nil, err
	}
	st := &soakStack{nodes: []*springfs.Node{home}, sfs: hb.FS["sfs"]}
	if err := s.verifyDurable(st.sfs); err != nil {
		st.teardown()
		return nil, err
	}
	// The simulated LAN is instant, so the protocol's WAN-scale default
	// deadlines would turn every injected drop into a multi-second stall;
	// tighten them to soak-scale.
	hb.FS["dfs"].(*dfs.Server).SetCallbackTimeout(20 * time.Millisecond)
	client := springfs.Spec{Layers: []springfs.LayerSpec{{Name: "remote", Creator: "dfs_client_creator",
		Config: map[string]string{"address": soakAddress}}}}
	for i := 0; i < soakClients; i++ {
		machine := springfs.NewNode(fmt.Sprintf("soak-c%d-r%d", i, round))
		machine.Join(network)
		st.nodes = append(st.nodes, machine)
		b, err := machine.Build(client)
		if err != nil {
			st.teardown()
			return nil, fmt.Errorf("serve: %w", err)
		}
		b.Top.(*dfs.ClientFS).Client().SetCallTimeout(50 * time.Millisecond)
		st.procs = append(st.procs, unixapi.NewProcess(b.Top, naming.Root))
	}
	return st, nil
}

// burst replays one trace per client concurrently and waits for all of
// them.
func (s *soakState) burst(st *soakStack, round, phase int) {
	var wg sync.WaitGroup
	for i, p := range st.procs {
		rng := rand.New(rand.NewSource(s.cfg.seed + int64(round)*1000 + int64(phase)*100 + int64(i)))
		scen := soakScenarios[i%len(soakScenarios)]
		ops := scen.gen(rng, fmt.Sprintf("c%d-%s", i, scen.name), round)
		if i == 0 && phase == 0 {
			ops = append(archiveTrace(round, s.cfg.seed), ops...)
		}
		s.register(ops)
		wg.Add(1)
		go func(p *unixapi.Process, ops []soakOp) {
			defer wg.Done()
			s.execTrace(p, ops)
		}(p, ops)
	}
	wg.Wait()
}

// runSoak is the engine's entry point. Every error it returns names the
// seed and the round, which is all a replay needs.
func runSoak(cfg soakConfig) error {
	fail := func(round int, err error) error {
		return fmt.Errorf("-seed %d round %d: %w", cfg.seed, round, err)
	}
	const blocks = 16384
	mem := blockdev.NewMem(blocks, blockdev.ProfileNone)
	if err := disklayer.Mkfs(mem, disklayer.MkfsOptions{}); err != nil {
		return fail(0, err)
	}
	s := &soakState{
		cfg:     cfg,
		crash:   blockdev.NewCrash(mem, cfg.seed),
		reg:     make(map[string]bool),
		durable: make(map[string][sha256.Size]byte),
		dirty:   make(map[string]bool),
	}
	s.crash.SetTorn(true)
	s.crash.SetReorder(true)
	rng := rand.New(rand.NewSource(cfg.seed))
	start := time.Now()

	round := 0
	for ; time.Since(start) < cfg.dur || s.cuts < cfg.crashes; round++ {
		st, err := s.serve(round)
		if err != nil {
			return fail(round, err)
		}

		// Burst 1, then checkpoint while the clients are quiescent.
		s.burst(st, round, 0)
		if err := s.checkpoint(st.sfs); err != nil {
			st.teardown()
			return fail(round, err)
		}

		// Burst 2 with the power-cut trap armed: odd rounds die at a
		// specific device write, even rounds at a wall-clock moment.
		if round%2 == 1 {
			s.crash.CrashAfterN(1 + rng.Int63n(400))
			s.burst(st, round, 1)
		} else {
			done := make(chan struct{})
			go func() {
				s.burst(st, round, 1)
				close(done)
			}()
			select {
			case <-time.After(time.Duration(1+rng.Intn(20)) * time.Millisecond):
				_ = s.crash.PowerCut()
			case <-done:
			}
			<-done
		}
		_ = s.crash.PowerCut() // ensure the cut happened even if the trap never fired
		s.cuts++
		st.teardown()

		// Recovery: restart, repair-mode fsck, and require a clean image.
		s.crash.Restart()
		if _, err := disklayer.Check(s.crash, true); err != nil {
			return fail(round, fmt.Errorf("fsck(repair): %w", err))
		}
		rep, err := disklayer.Check(s.crash, false)
		if err != nil {
			return fail(round, fmt.Errorf("fsck: %w", err))
		}
		if !rep.Clean {
			return fail(round, fmt.Errorf("image not clean after recovery:\n%s", rep))
		}
	}

	// Final verification pass over the last crash.
	home, b, err := s.mountHome("final", nil)
	if err != nil {
		return fail(round, err)
	}
	defer home.Stop()
	if err := s.verifyDurable(b.Top); err != nil {
		return fail(round, err)
	}

	errPct := 0.0
	if s.ops > 0 {
		errPct = 100 * float64(s.opErrs) / float64(s.ops)
	}
	fmt.Printf("soak: %d power cuts, %d clean fscks, %d durable files verified byte-identical, %d client ops (%.1f%% faulted), %s elapsed\n",
		s.cuts, s.cuts, s.verified, s.ops, errPct, time.Since(start).Round(time.Millisecond))
	return nil
}
